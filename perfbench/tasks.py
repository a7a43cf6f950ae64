"""Task lists for the three workloads, derived from the workload seed.

A task is one ``qgrass`` CLI call plus what its output must say.  The
seed moves the random flags, maps and campaign subseeds; the shapes,
dimension tuples and task mix are fixed per workload, so every seed asks
for the same amount of work and the figures of different seeds compare.

Inputs that the CLI reads from files (flags and maps) are written to a
work directory during set-up.  Expected answers come from how each input
was built (a map constructed to stabilize a flag must be accepted) or
from closed forms in ``checks``.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from checks import flag_stabilizer_order, gaussian_binomial, gl_order, nonredundant

from qgrass import cli
from qgrass.field import field_from_order
from qgrass.grassmann import random_flag
from qgrass.linalg import Subspace, matmul, matrix_inverse, random_invertible


@dataclass(frozen=True)
class Task:
    kind: str
    label: str
    argv: tuple
    expect: dict


# -- campaigns: the acceptance shape, small trial counts, fresh subseeds ------

ACCEPTANCE = {"q": 2, "m": 4, "l": 2}
COPIES_PER_CAMPAIGN = 6

# campaign -> (size option, size)
# trial counts are multiples of each campaign's rotation of trial kinds,
# so every task covers every kind
CAMPAIGN_SIZES = {
    "redundancy": ("--flags-per-alpha", 1),
    "flag-equality": ("--trials", 4),
    "dual-image": ("--trials", 1),
    "covariant-criterion": ("--trials", 4),
    "automorphism-criterion": ("--trials", 6),
    "alpha-uniqueness": ("--flags-per-alpha", 1),
}

# campaign -> (mutant, trials).  Two mutants only show on some trial kinds,
# so their tasks run enough trials that a miss has odds below 1e-4.
MUTANTS = {
    "redundancy": ("drop-nonredundant-condition", 1),
    "flag-equality": ("alpha-for-alpha-nc", 60),
    "dual-image": ("dual-formula-m-minus-j", 1),
    "automorphism-criterion": ("skip-contravariant-set-check", 60),
}


def campaign_cases(campaign, size):
    q, m, l = ACCEPTANCE["q"], ACCEPTANCE["m"], ACCEPTANCE["l"]
    alphas = len(list(combinations(range(m), l)))
    if campaign == "redundancy":
        return alphas * size * gaussian_binomial(m, l, q)
    if campaign in ("alpha-uniqueness", "dual-image"):
        return alphas * size
    return size


def _verify_task(campaign, size, subseed, mutant=None):
    option = CAMPAIGN_SIZES[campaign][0]
    argv = ["verify", campaign]
    for key in ("q", "m", "l"):
        argv += [f"--{key}", str(ACCEPTANCE[key])]
    argv += [option, str(size), "--seed", str(subseed)]
    if mutant:
        argv += ["--mutant", mutant]
    return Task(
        "verify",
        f"{campaign}{'/' + mutant if mutant else ''}",
        tuple(argv),
        {"campaign": campaign, "mutant": mutant, "cases": campaign_cases(campaign, size)},
    )


def campaign_tasks(rng, workdir, fields):
    tasks = []
    for _ in range(COPIES_PER_CAMPAIGN):
        for campaign, (_, size) in CAMPAIGN_SIZES.items():
            tasks.append(_verify_task(campaign, size, rng.getrandbits(31)))
    # one mutant task in every ten, spread through the list
    for i, (campaign, (mutant, size)) in enumerate(MUTANTS.items()):
        task = _verify_task(campaign, size, rng.getrandbits(31), mutant)
        tasks.insert(i * (len(tasks) // len(MUTANTS) + 1), task)
    return tasks


# -- census: full-oracle walks of whole groups --------------------------------

# (q, m, alpha, random flag?, include dual).  Three heavy walks, and light
# tasks of one size between them: the p50 and the tail then fall inside a
# dense cluster of similar tasks instead of on one task's noise.
CENSUS_HEAVY = [
    (2, 4, (1, 4), False, False),
    (2, 4, (1, 2), True, False),
    (3, 3, (1, 2), True, False),
]
CENSUS_LIGHT = [(2, 3, (1, 3), True, False)] * 20 + [
    (3, 2, (1,), True, True),
    (4, 2, (1,), True, True),
]
CENSUS_SLOTS = [
    CENSUS_HEAVY[0], *CENSUS_LIGHT[:8],
    CENSUS_HEAVY[1], *CENSUS_LIGHT[8:16],
    CENSUS_HEAVY[2], *CENSUS_LIGHT[16:],
]

# the frozen acceptance value: lines inside a fixed line of GF(2)^4
FROZEN_CENSUS = {(2, 4, (1, 4)): 1344}


def census_tasks(rng, workdir, fields):
    tasks = []
    for i, (q, m, alpha, random_member, dual) in enumerate(CENSUS_SLOTS):
        gf = fields[q]
        argv = ["census", "--q", str(q), "--m", str(m), "--alpha", _csv(alpha)]
        if random_member:
            flag = random_flag(gf, m, alpha, rng=rng)
            argv += ["--flag", _write(workdir, f"census-{i}-flag", flag.to_json_dict())]
        argv += ["--oracle", "full"]
        if dual:
            argv.append("--include-dual")
        stabilizers = None
        if not dual and gf.e == 1:
            dims = [d for d in nonredundant(alpha) if d < m]
            stabilizers = FROZEN_CENSUS.get((q, m, alpha), flag_stabilizer_order(q, m, dims))
        tasks.append(
            Task(
                "census",
                f"census q={q} m={m} alpha={_csv(alpha)}{' dual' if dual else ''}",
                tuple(argv),
                {
                    "group_size": gl_order(q, m) * gf.e * (2 if dual else 1),
                    "stabilizers": stabilizers,
                },
            )
        )
    return tasks


# -- fields: everything that is not GF(2) --------------------------------------

# enumeration-backed shapes: q -> (m, eq pairs, aut-check maps, points)
ENUMERATION = {
    3: (4, [("recoded", (2, 4)), ("redundant", (2, 3)), ("nc-differ", (1, 3)), ("independent", (2, 4))],
        [("stabilizer", (1, 3)), ("random", (2, 4))], [(2, 4)]),
    4: (4, [("recoded", (2, 4)), ("redundant", (2, 3)), ("nc-differ", (1, 3)), ("independent", (2, 4))],
        [("stabilizer", (1, 3)), ("random", (2, 4)), ("contravariant", (1, 3))], [(2, 4)]),
    9: (3, [("recoded", (1, 3)), ("redundant", (1, 2)), ("nc-differ", (1, 3)), ("independent", (2, 3))],
        [("stabilizer", (1, 3)), ("random", (1, 2))], [(1, 3)]),
}
# a whole Grassmannian large enough to set the workload's peak memory
WHOLE_GRASSMANNIAN = (3, 6, 3)

# descriptor-only tasks: 243 and 256 have operation tables, 343 and 512 not
DESCRIPTOR_ORDERS = (243, 256, 343, 512)
DESCRIPTOR_SHAPE = (6, (2, 3, 5))


def field_tasks(rng, workdir, fields):
    tasks = []
    for q, (m, pairs, maps, varieties) in ENUMERATION.items():
        gf = fields[q]
        for kind, alpha in pairs:
            tasks.append(_eq_task(gf, m, alpha, kind, rng, workdir, len(tasks), oracle=True))
        for kind, alpha in maps:
            tasks.append(_aut_task(gf, m, alpha, kind, rng, workdir, len(tasks), mode="both"))
        for alpha in varieties:
            T = random_invertible(gf, m, rng)
            path = _write(workdir, f"fields-{len(tasks)}-flag", _flag_doc(gf, m, alpha, T))
            argv = ("points", "--q", str(q), "--m", str(m), "--alpha", _csv(alpha), "--flag", path, "--count-only")
            tasks.append(Task("points", f"points q={q} alpha={_csv(alpha)}", argv,
                              {"count": _closed_form_count(q, m, ["--alpha", _csv(alpha)])}))
    q, m, l = WHOLE_GRASSMANNIAN
    argv = ("points", "--q", str(q), "--m", str(m), "--l", str(l), "--count-only")
    tasks.append(Task("points", f"points q={q} G({l},{m})", argv,
                      {"count": _closed_form_count(q, m, ["--l", str(l)])}))
    m, alpha = DESCRIPTOR_SHAPE
    for q in DESCRIPTOR_ORDERS:
        gf = fields[q]
        for kind in ("recoded", "redundant", "nc-differ"):
            tasks.append(_eq_task(gf, m, alpha, kind, rng, workdir, len(tasks), oracle=False))
        tasks.append(_image_task(gf, m, alpha, rng, workdir, len(tasks)))
        for kind in ("stabilizer", "mover"):
            tasks.append(_aut_task(gf, m, alpha, kind, rng, workdir, len(tasks), mode="fast"))
    return tasks


def _closed_form_count(q, m, shape):
    """Point count from the closed-form ``count --polynomial`` verb."""
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["count", "--q", str(q), "--m", str(m), *shape, "--polynomial"])
    if rc != 0:
        raise RuntimeError(f"count --polynomial exited {rc}")
    value = 0
    for c in reversed(json.loads(out.getvalue())["polynomial"]):
        value = value * q + c
    return value


def _eq_task(gf, m, alpha, kind, rng, workdir, i, oracle):
    T = random_invertible(gf, m, rng)
    equal = None
    if kind == "recoded":
        second = _flag_doc(gf, m, alpha, T, rng=rng)
        equal = True
    elif kind == "independent":
        second = _flag_doc(gf, m, alpha, random_invertible(gf, m, rng))
    else:
        # a row operation that moves exactly the member of dimension a
        aset = set(alpha)
        if kind == "redundant":
            a = min(a for a in alpha if a + 1 in aset)
            equal = True
        else:
            a = min(a for a in nonredundant(alpha) if a < m)
            equal = False
        T2 = T.copy()
        T2[a - 1] = gf.add(T[a - 1], gf.mul(rng.randrange(1, gf.q), T[a]))
        second = _flag_doc(gf, m, alpha, T2)
    first = _write(workdir, f"fields-{i}-a", _flag_doc(gf, m, alpha, T))
    second = _write(workdir, f"fields-{i}-b", second)
    argv = ["eq", first, second]
    if oracle:
        argv += ["--oracle", "--witness"]
    return Task(
        "eq",
        f"eq{' --oracle' if oracle else ''} q={gf.q} {kind} alpha={_csv(alpha)}",
        tuple(argv),
        {"equal": equal, "oracle": oracle, "witness": oracle, "l": len(alpha), "m": m},
    )


def _aut_task(gf, m, alpha, kind, rng, workdir, i, mode):
    T = random_invertible(gf, m, rng)
    stabilizes = None
    if kind == "stabilizer":
        tau = _stabilizer(gf, m, T, rng.randrange(gf.e), rng)
        stabilizes = True
    elif kind == "mover":
        a = max(a for a in nonredundant(alpha) if a < m)
        tau = _map_doc(gf, m, _conjugate(gf, T, _swap(m, a - 1, a)))
        stabilizes = False
    else:
        dual = kind == "contravariant"
        tau = _map_doc(gf, m, random_invertible(gf, m, rng), rng.randrange(gf.e), dual)
    variety = _write(workdir, f"fields-{i}-flag", _flag_doc(gf, m, alpha, T))
    argv = ("aut-check", _write(workdir, f"fields-{i}-map", tau), variety, f"--{mode}")
    return Task(
        "aut-check",
        f"aut-check --{mode} q={gf.q} {kind} alpha={_csv(alpha)}",
        argv,
        {"mode": mode, "stabilizes": stabilizes},
    )


def _image_task(gf, m, alpha, rng, workdir, i):
    T = random_invertible(gf, m, rng)
    flag = _flag_doc(gf, m, alpha, T)
    tau = _stabilizer(gf, m, T, rng.randrange(1, gf.e), rng)
    argv = (
        "image",
        _write(workdir, f"fields-{i}-map", tau),
        _write(workdir, f"fields-{i}-flag", flag),
    )
    # the map fixes every member, so the image is the flag itself
    canonical = [Subspace.from_rows(gf, rows).to_rows() for rows in flag["subspaces"]]
    return Task(
        "image",
        f"image q={gf.q} alpha={_csv(alpha)}",
        argv,
        {"alpha": list(alpha), "subspaces": canonical},
    )


# -- constructions -------------------------------------------------------------


def _stabilizer(gf, m, T, k, rng):
    """A map fixing every member spanned by a prefix of the rows of T.

    A lower triangular L keeps each coordinate prefix, and conjugating by
    the Frobenius image of T moves that onto the flag of T.
    """
    L = [[0] * m for _ in range(m)]
    for i in range(m):
        L[i][i] = rng.randrange(1, gf.q)
        for j in range(i):
            L[i][j] = rng.randrange(gf.q)
    twisted = gf.frobenius(T, k) if k else T
    M = matmul(gf, matrix_inverse(gf, twisted), matmul(gf, L, T))
    return _map_doc(gf, m, M, k)


def _conjugate(gf, T, P):
    return matmul(gf, matrix_inverse(gf, T), matmul(gf, P, T))


def _swap(m, i, j):
    P = [[int(r == c) for c in range(m)] for r in range(m)]
    P[i], P[j] = P[j], P[i]
    return P


def _flag_doc(gf, m, alpha, T, rng=None):
    """Flag JSON whose member of dimension a spans the first a rows of T.

    With rng, each member is written with random spanning rows instead,
    so the reader must canonicalize to see the same flag.
    """
    members = []
    for a in alpha:
        rows = T[:a]
        if rng is not None:
            rows = matmul(gf, random_invertible(gf, a, rng), rows)
        members.append(_rows(rows))
    return {"q": gf.q, "m": m, "alpha": list(alpha), "subspaces": members, "includes_zero": False}


def _map_doc(gf, m, M, k=0, dual=False):
    return {"q": gf.q, "m": m, "matrix": _rows(M), "frobenius_power": k, "dual": dual}


def _rows(mat):
    return [[int(x) for x in row] for row in mat]


def _csv(alpha):
    return ",".join(str(a) for a in alpha)


def _write(workdir, name, doc):
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@dataclass(frozen=True)
class Workload:
    orders: tuple
    build: object


WORKLOADS = {
    "campaigns": Workload((2,), campaign_tasks),
    "census": Workload((2, 3, 4, 5, 7), census_tasks),
    "fields": Workload((3, 4, 9) + DESCRIPTOR_ORDERS, field_tasks),
}


def build_fields(workload):
    return {q: field_from_order(q) for q in WORKLOADS[workload].orders}


def build_tasks(workload, seed, workdir, fields):
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload].build(rng, workdir, fields)

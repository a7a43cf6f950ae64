"""Randomized and exhaustive verification campaigns with mutant controls.

Each campaign pits a fast structural criterion against a brute-force
oracle over seeded random instances, and reports every disagreement.
Campaigns also accept a named mutant: a deliberately broken variant of
the fast side.  A healthy harness must light up red under every mutant;
a mutant that stays green means the campaign tests nothing.

All randomness flows from one integer master seed through per-trial
integer subseeds, so reports are reproducible byte for byte (timing is
kept out of the canonical JSON).
"""

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BudgetExceededError, _exact
from .field import field_from_order
from .grassmann import (
    Flag,
    enumerate_grassmannian,
    gaussian_binomial,
    random_flag,
    random_subspace,
)
from .group import (
    SemilinearMap,
    _reflected_image,
    compose,
    enumerate_invertible,
    group_order,
    image_of_schubert,
    is_automorphism_fast,
    is_automorphism_oracle,
    random_semilinear,
)
from .linalg import (
    Subspace,
    _intersection_dim,
    _matmul,
    _pivots,
    random_matrix,
)
from .schubert import (
    SchubertVariety,
    _binding,
    _images_within,
    _nc_positions,
    dual_index_set,
    equal_fast,
    equal_oracle,
    equality_witness,
)

MAX_RECORDED_FAILURES = 50


@dataclass
class VerificationReport:
    theorem_id: str
    parameters: dict
    cases_tested: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def verdict(self):
        return "pass" if not self.failures else "fail"

    def to_json_dict(self, include_elapsed=False):
        out = {
            "theorem_id": self.theorem_id,
            "parameters": self.parameters,
            "cases_tested": self.cases_tested,
            "failures": self.failures,
            "verdict": self.verdict,
        }
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed
        return out


@dataclass
class CensusReport:
    parameters: dict
    group_size: int
    tested: int
    fast_count: int
    oracle_count: object  # int when the oracle ran on everything, else None
    oracle_checked: int
    mismatches: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def fraction(self):
        return self.fast_count / self.group_size if self.group_size else 0.0

    @property
    def verdict(self):
        return "pass" if not self.mismatches else "fail"

    def to_json_dict(self, include_elapsed=False):
        out = {
            "parameters": self.parameters,
            "group_size": self.group_size,
            "tested": self.tested,
            "fast_count": self.fast_count,
            "oracle_count": self.oracle_count,
            "oracle_checked": self.oracle_checked,
            "mismatches": self.mismatches,
            "fraction": self.fraction,
            "verdict": self.verdict,
        }
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed
        return out


def _run_campaign(
    theorem_id, trial, keys, q, m, l, seed, mutant, mutants, finish=None, **parameters
):
    """Run ``trial(gf, key, rng)`` once per key and build the report.

    Subseeds are drawn from the master seed in key order, and each
    trial draws from its own ``random.Random(subseed)``.  A trial
    returns a dict with its "cases", its "failures" and any further
    counters; each counter is added to the report parameter of the same
    name, which the campaign passes in with its starting value.  The
    runner records the subseed as the "seed" of every failure a trial
    returns, so the trial can be replayed from it.  ``finish()``, when
    given, returns failures found across trials.  Failures are recorded
    in canonical order, at most MAX_RECORDED_FAILURES of them.  The
    master seed must be exactly an int.
    """
    if mutant is not None and mutant not in mutants:
        raise ValueError(f"unknown mutant {mutant!r}; valid: {sorted(mutants)}")
    if not keys:
        size = "trials" if "trials" in parameters else "flags_per_alpha"
        raise ValueError(f"{size}={parameters[size]} leaves nothing to test on G({l}, {m})")
    gf = field_from_order(q)
    started = time.perf_counter()
    parameters = {"q": q, "m": m, "l": l, "seed": seed, "mutant": mutant, **parameters}
    master = random.Random(_exact(seed, "seed", int))
    cases = 0
    failures = []
    for key in keys:
        subseed = master.getrandbits(48)
        result = trial(gf, key, random.Random(subseed))
        cases += result.pop("cases")
        for f in result["failures"]:
            f["seed"] = subseed
        failures.extend(result.pop("failures"))
        for name, count in result.items():
            parameters[name] += count
    if finish is not None:
        failures.extend(finish())
    failures.sort(key=lambda f: json.dumps(f, sort_keys=True))
    parameters["failures_truncated"] = len(failures) > MAX_RECORDED_FAILURES
    return VerificationReport(
        theorem_id=theorem_id,
        parameters=parameters,
        cases_tested=cases,
        failures=failures[:MAX_RECORDED_FAILURES],
        elapsed=time.perf_counter() - started,
    )


def _failures(record, checks):
    """record, naming the problem, for each {problem: failed} entry that failed."""
    return [{**record, "problem": problem} for problem, failed in checks.items() if failed]


def _check_sizes(**sizes):
    """Every campaign's first step: its shape and sizes are exactly ints (_exact).

    The shape must also name a Grassmannian with points of dimension at
    least 1: 1 <= l <= m.
    """
    for name, value in sizes.items():
        _exact(value, name, int)
    m, l = sizes["m"], sizes["l"]
    if not 1 <= l <= m:
        raise ValueError(f"no campaign runs on G({l}, {m}): l must lie in [1, m]")


def _all_alphas(m, l):
    return list(itertools.combinations(range(1, m + 1), l))


# -- campaign: redundant conditions never matter -----------------------------


def verify_redundancy(
    q,
    m,
    l,
    mode="auto",
    flags_per_alpha=50,
    seed=0,
    mutant=None,
    sample_points=200,
):
    """Check that the reduced condition list decides membership.

    For every dimension tuple and a batch of random flags, each point of
    the Grassmannian must satisfy the reduced conditions exactly when it
    satisfies all of them.  The definition itself is evaluated, not the
    variety's membership test: each member's condition
    dim(W & S_i) >= i + 1 is one intersection_dim per enumerated or
    drawn point.  The full verdict is all of them and the reduced
    verdict those at the non-redundant positions, so the two agree only
    where the other conditions are implied, which is what is tested.
    The mutant drops the first reduced condition (a load-bearing one)
    and must produce failures.

    Membership is equivariant: W lies on Omega(F.h) exactly when W.h^-1
    lies on Omega(F), for h in GL(m), since dim(W & S.h) =
    dim(W.h^-1 & S) for every member S.  Any two flags with the same
    tuple differ by such an h, so in exhaustive mode, where W runs over
    all of G(l, m), a tuple's first flag already meets every verdict a
    flag with that tuple can give, and the rest of the flags_per_alpha
    loop only repeats it.
    """
    _check_sizes(q=q, m=m, l=l, flags_per_alpha=flags_per_alpha, sample_points=sample_points)
    if mode not in ("auto", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    alphas = _all_alphas(m, l)
    if mode == "auto":
        budget = len(alphas) * flags_per_alpha * gaussian_binomial(m, l, q)
        mode = "exhaustive" if budget <= 2_000_000 else "sample"
    if mode == "sample" and sample_points < 1:
        raise ValueError(f"sample_points={sample_points} leaves nothing to test")

    def trial(gf, alpha, rng):
        members = random_flag(gf, m, alpha, rng=rng).subspaces
        reduced_at = _nc_positions(alpha)
        if mutant == "drop-nonredundant-condition":
            reduced_at = reduced_at[1:]
        failures = []
        cases = 0
        if mode == "exhaustive":
            points = enumerate_grassmannian(gf, m, l)
        else:
            points = (random_subspace(gf, m, l, rng) for _ in range(sample_points))
        for W in points:
            cases += 1
            met = [_intersection_dim(W, S) > i for i, S in enumerate(members)]
            reduced = all([met[i] for i in reduced_at])
            full = all(met)
            if reduced != full:
                failures.append(
                    {
                        "alpha": list(alpha),
                        "point": W.to_rows(),
                        "reduced": reduced,
                        "full": full,
                    }
                )
        return {"cases": cases, "failures": failures}

    return _run_campaign(
        "redundancy",
        trial,
        [alpha for alpha in alphas for _ in range(flags_per_alpha)],
        q, m, l, seed, mutant, {"drop-nonredundant-condition"},
        mode=mode,
        flags_per_alpha=flags_per_alpha,
    )


# -- campaign: flag equality criterion ---------------------------------------


def _random_between(gf, lower, upper, dim, rng):
    """Random subspace of the given dimension nested between two others."""
    rows = list(lower.basis)
    cur = lower
    while cur.dim < dim:
        v = upper.vector_at(rng.randrange(1, gf.q**upper.dim))
        if any(cur._residual(v)):
            rows.append(v)
            cur = Subspace.from_rows(gf, rows, ambient=lower.m)
    return cur


def _resample_member(flag, i, rng):
    """The flag with member i redrawn, different, between its neighbours."""
    gf, m, alpha = flag.gf, flag.m, flag.alpha
    members = list(flag.subspaces)
    lower = members[i - 1] if i > 0 else Subspace.zero(gf, m)
    upper = members[i + 1] if i + 1 < len(members) else Subspace.full(gf, m)
    for _ in range(200):
        S = _random_between(gf, lower, upper, alpha[i], rng)
        if S != members[i]:
            members[i] = S
            return Flag._trusted(gf, m, alpha, tuple(members))
    raise RuntimeError("member resampling stalled")


def verify_flag_equality(
    q,
    m,
    l,
    trials=1000,
    seed=1,
    mutant=None,
):
    """Check the descriptor test for variety equality against enumeration.

    Trials rotate through flag pairs that are identical, differ only at
    a redundant dimension, differ at a non-redundant dimension, or are
    independent.  Every oracle-unequal pair must also yield a verified
    separating point.  The mutant compares members at every dimension
    (not just the non-redundant ones) and must flag false inequalities.
    """
    _check_sizes(q=q, m=m, l=l, trials=trials)
    alphas = _all_alphas(m, l)
    kinds = ("identical", "redundant-resample", "nc-differ", "independent")

    def trial(gf, idx, rng):
        alpha = alphas[rng.randrange(len(alphas))]
        kind = kinds[idx % len(kinds)]
        nc = _nc_positions(alpha)
        red_positions = [i for i in range(len(alpha)) if i not in nc]
        binding = _binding(alpha, m)
        if kind == "redundant-resample" and not red_positions:
            kind = "independent"
        if kind == "nc-differ" and not binding:
            kind = "independent"
        f1 = random_flag(gf, m, alpha, rng=rng)
        if kind == "identical":
            f2 = f1
        elif kind == "redundant-resample":
            f2 = _resample_member(f1, red_positions[rng.randrange(len(red_positions))], rng)
        elif kind == "nc-differ":
            f2 = _resample_member(f1, binding[rng.randrange(len(binding))], rng)
        else:
            f2 = random_flag(gf, m, alpha, rng=rng)
        o1, o2 = SchubertVariety(f1), SchubertVariety(f2)
        if mutant == "alpha-for-alpha-nc":
            fast = all(s1 == s2 for s1, s2 in zip(f1.subspaces, f2.subspaces))
        else:
            fast = equal_fast(o1, o2)
        oracle = equal_oracle(o1, o2)
        negative = not oracle
        got_witness = False
        if negative:
            W = equality_witness(o1, o2)
            got_witness = W is not None and (
                o1.contains(W) != o2.contains(W)
            )
        record = {
            "trial": idx,
            "kind": kind,
            "alpha": list(alpha),
            "fast": fast,
            "oracle": oracle,
        }
        failures = _failures(
            record,
            {
                "fast-oracle-disagreement": fast != oracle,
                "identical-pair-unequal": kind == "identical" and not oracle,
                "redundant-change-was-seen": kind == "redundant-resample" and not oracle,
                "nc-change-was-invisible": kind == "nc-differ" and oracle,
                "no-verified-witness": negative and not got_witness,
            },
        )
        return {
            "cases": 1,
            "failures": failures,
            "negative_cases": int(negative),
            "witnessed": int(got_witness),
        }

    return _run_campaign(
        "flag-equality",
        trial,
        range(trials),
        q, m, l, seed, mutant, {"alpha-for-alpha-nc"},
        trials=trials,
        negative_cases=0,
        witnessed=0,
    )


# -- campaign: contravariant image descriptor --------------------------------


def _mutant_dual_image(tau, omega):
    """Broken reflection (m - j instead of m + 1 - j) of the image tuple."""
    m = omega.m
    aset = set(omega.alpha)
    beta = tuple(sorted(m - j for j in range(1, m + 1) if j not in aset))
    return _reflected_image(tau, omega, beta)


def verify_dual_image(
    q,
    m,
    l,
    trials=100,
    seed=7,
    mutant=None,
):
    """Check the descriptor of a contravariant image against moved points.

    Each trial draws one contravariant map and, for every dimension
    tuple, a random flag; the image descriptor's point set must equal
    the pointwise image.  tau is injective, so that is two checks: the
    descriptor has as many points as the variety (count_points), and
    tau maps every point of the variety onto the descriptor (the cell
    walk of schubert._images_within).  The mutant mis-reflects the
    dimension tuple and must fail (sometimes by building an invalid
    flag, which counts).
    """
    _check_sizes(q=q, m=m, l=l, trials=trials)
    if m != 2 * l:
        raise ValueError("contravariant images need m = 2l")
    alphas = _all_alphas(m, l)

    def trial(gf, idx, rng):
        tau = random_semilinear(gf, m, rng=rng, dual=True)
        failures = []
        cases = 0
        for alpha in alphas:
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
            cases += 1
            record = {
                "trial": idx,
                "alpha": list(alpha),
            }
            try:
                if mutant == "dual-formula-m-minus-j":
                    image = _mutant_dual_image(tau, omega)
                else:
                    image = image_of_schubert(tau, omega)
            except ValueError as err:
                failures.append(
                    {**record, "problem": "image-flag-invalid", "error": str(err)}
                )
                continue
            descriptor_size, pointwise_size = image.count_points(), omega.count_points()
            if descriptor_size != pointwise_size or not _images_within(
                omega, image, tau.frobenius_power, tau.matrix, tau.dual
            ):
                failures.append(
                    {
                        **record,
                        "problem": "image-points-differ",
                        "image_alpha": list(image.alpha),
                        "descriptor_size": descriptor_size,
                        "pointwise_size": pointwise_size,
                    }
                )
        return {"cases": cases, "failures": failures}

    return _run_campaign(
        "dual-image",
        trial,
        range(trials),
        q, m, l, seed, mutant, {"dual-formula-m-minus-j"},
        trials=trials,
    )


# -- map constructions used by the criterion campaigns -----------------------


def _in_adapted_coordinates(omega, L):
    """The covariant map acting as the matrix L on the variety's adapted basis.

    The basis and its inverse are the variety's own, so an oracle run
    on omega afterwards reuses them.
    """
    gf = omega.gf
    M = _matmul(gf, omega._adapted_inverse(), _matmul(gf, L, omega._adapted()))
    return SemilinearMap._trusted(gf, omega.m, M, 0, False)


def _flag_stabilizer(omega, rng):
    """Random invertible map fixing the members at non-redundant dimensions.

    Conjugates a random block-triangular matrix into the coordinates of
    an adapted basis; the zero blocks keep each of those prefixes stable.
    """
    gf, m, alpha = omega.gf, omega.m, omega.alpha
    bounds = [alpha[i] for i in _binding(alpha, m)]
    while True:
        L = random_matrix(gf, m, m, rng)
        for d in bounds:
            for row in L[:d]:
                row[d:] = [0] * (m - d)
        if len(_pivots(gf, L)) == m:
            return _in_adapted_coordinates(omega, L)


def _member_mover(omega, rng):
    """Map moving exactly one binding member, or None if there is none.

    Swaps two adjacent adapted coordinates straddling that member's
    dimension: every other member's prefix keeps both or neither.
    """
    m, alpha = omega.m, omega.alpha
    cands = _binding(alpha, m)
    if not cands:
        return None
    a = alpha[cands[rng.randrange(len(cands))]]
    P = [[int(i == j) for j in range(m)] for i in range(m)]
    P[a - 1], P[a] = P[a], P[a - 1]
    return _in_adapted_coordinates(omega, P)


def _covariant_case(kind, omega, rng, random_kind):
    """(kind, tau, expected): a stabilizer must pass, a single-member move must fail.

    A mover with nothing to move, and any other kind, become random_kind:
    a random covariant map with no expected verdict.
    """
    if kind == "stabilizing":
        return kind, _flag_stabilizer(omega, rng), True
    if kind == "mover":
        tau = _member_mover(omega, rng)
        if tau is not None:
            return kind, tau, False
    return random_kind, random_semilinear(omega.gf, omega.m, rng=rng), None


@lru_cache(maxsize=None)
def _perp_symmetric_flag(gf, m, alpha):
    """A flag whose annihilators permute its members, or None.

    Only possible when the dimension tuple equals its reflected
    complement.  Builds a chain of subspaces each contained in its own
    annihilator by greedy search; members above the middle dimension are
    annihilators of members below it.  Returns None when the ambient
    form admits no such chain.  The search draws nothing at random, so
    its answer, an immutable Flag, is built once per (field, m, alpha).
    """
    if dual_index_set(alpha, m) != tuple(alpha):
        return None
    half = m // 2
    chain = [Subspace.zero(gf, m)]
    cur = chain[0]
    while cur.dim < half:
        room = cur.perp()
        found = None
        for v in room.vectors(nonzero=True):
            if not any(cur._residual(v)):
                continue
            if gf.dot(v, v) != 0:
                continue
            found = v
            break
        if found is None:
            return None
        cur = cur + Subspace.from_rows(gf, found, ambient=m)
        chain.append(cur)
    members = []
    for d in alpha:
        members.append(chain[d] if d <= half else chain[m - d].perp())
    return Flag(gf, m, tuple(alpha), tuple(members))


# -- campaign: covariant stabilizer criterion --------------------------------


def verify_covariant_criterion(
    q,
    m,
    l,
    trials=400,
    seed=5,
    mutant=None,
):
    """Check that fixing the non-redundant members is exactly stabilizing.

    Trials rotate through random maps, constructed stabilizers (which
    must pass), moves of a single non-redundant member (which must
    fail), and random maps with a Frobenius twist when the field has
    one.  Every trial compares the flag criterion with the point oracle.
    The mutant demands that every member be fixed, redundant ones too,
    and must fail on the constructed stabilizers.
    """
    _check_sizes(q=q, m=m, l=l, trials=trials)
    alphas = _all_alphas(m, l)
    kinds = ("random", "stabilizing", "mover", "twisted")

    def trial(gf, idx, rng):
        alpha = alphas[rng.randrange(len(alphas))]
        kind = kinds[idx % len(kinds)]
        flag = random_flag(gf, m, alpha, rng=rng)
        omega = SchubertVariety(flag)
        if kind == "twisted" and gf.e > 1:
            tau = random_semilinear(gf, m, rng=rng)
            tau = SemilinearMap._trusted(gf, m, tau.matrix, rng.randrange(1, gf.e), False)
            expected = None
        else:
            kind, tau, expected = _covariant_case(kind, omega, rng, "random")
        if mutant == "fix-every-member":
            fast = all(tau(S) == S for S in flag.subspaces)
        else:
            fast = is_automorphism_fast(tau, omega)
        oracle = is_automorphism_oracle(tau, omega)
        record = {
            "trial": idx,
            "kind": kind,
            "alpha": list(alpha),
            "fast": fast,
            "oracle": oracle,
        }
        failures = _failures(
            record,
            {
                "fast-oracle-disagreement": fast != oracle,
                "constructed-case-surprised": expected is not None and fast != expected,
            },
        )
        return {"cases": 1, "failures": failures}

    return _run_campaign(
        "covariant-criterion",
        trial,
        range(trials),
        q, m, l, seed, mutant, {"fix-every-member"},
        trials=trials,
    )


# -- campaign: full automorphism criterion, both variances -------------------


def verify_automorphism_criterion(
    q,
    m,
    l,
    trials=1000,
    seed=3,
    mutant=None,
):
    """Check the full stabilizer criterion over mixed map populations.

    Rotates covariant and contravariant cases, including targeted ones:
    constructed stabilizers, annihilator maps on annihilator-symmetric
    flags (must pass), contravariant maps on tuples that are not their
    own reflected complement (must fail), and single-member moves.  The
    mutant skips the member matching for contravariant maps, keeping
    only the tuple self-duality test, and must produce failures.
    """
    _check_sizes(q=q, m=m, l=l, trials=trials)
    alphas = _all_alphas(m, l)
    middle = m == 2 * l
    self_dual = [a for a in alphas if dual_index_set(a, m) == a]
    non_self_dual = [a for a in alphas if dual_index_set(a, m) != a]
    kinds = (
        "random-covariant",
        "stabilizing",
        "random-contravariant",
        "perp-symmetric",
        "non-self-dual-contra",
        "mover",
    )

    def fast_check(tau, omega):
        if mutant == "skip-contravariant-set-check" and tau.dual:
            return dual_index_set(omega.alpha, omega.m) == omega.alpha
        return is_automorphism_fast(tau, omega)

    def trial(gf, idx, rng):
        kind = kinds[idx % len(kinds)]
        if not middle and kind in (
            "random-contravariant",
            "perp-symmetric",
            "non-self-dual-contra",
        ):
            kind = "random-covariant"
        if kind == "non-self-dual-contra" and not non_self_dual:
            kind = "random-contravariant"
        if kind == "perp-symmetric":
            picked = None
            if self_dual:
                a = self_dual[rng.randrange(len(self_dual))]
                picked = _perp_symmetric_flag(gf, m, a)
            if picked is None:
                kind = "random-contravariant"
            else:
                omega = SchubertVariety(picked)
                tau = compose(
                    SemilinearMap.perp_map(gf, m), _flag_stabilizer(omega, rng)
                )
                expected = True
        if kind != "perp-symmetric":
            pool = non_self_dual if kind == "non-self-dual-contra" else alphas
            alpha = pool[rng.randrange(len(pool))]
            omega = SchubertVariety(random_flag(gf, m, alpha, rng=rng))
            if kind in ("random-contravariant", "non-self-dual-contra"):
                tau = random_semilinear(gf, m, rng=rng, dual=True)
                expected = False if kind == "non-self-dual-contra" else None
            else:
                kind, tau, expected = _covariant_case(kind, omega, rng, "random-covariant")
        record = {"trial": idx, "kind": kind, "alpha": list(omega.alpha)}
        try:
            fast = fast_check(tau, omega)
        except ValueError as err:
            failures = [{**record, "problem": "fast-raised", "error": str(err)}]
            return {"cases": 1, "failures": failures}
        oracle = is_automorphism_oracle(tau, omega)
        record["fast"] = fast
        record["oracle"] = oracle
        record["contravariant"] = tau.dual
        failures = _failures(
            record,
            {
                "fast-oracle-disagreement": fast != oracle,
                "constructed-case-surprised": expected is not None and oracle != expected,
            },
        )
        return {"cases": 1, "failures": failures}

    return _run_campaign(
        "automorphism-criterion",
        trial,
        range(trials),
        q, m, l, seed, mutant, {"skip-contravariant-set-check"},
        trials=trials,
    )


# -- campaign: the dimension tuple is visible in the points ------------------


def verify_alpha_uniqueness(
    q,
    m,
    l,
    flags_per_alpha=50,
    seed=0,
    mutant=None,
):
    """Check that equal point sets force equal dimension tuples.

    Enumerates the point set of many random varieties per tuple and
    buckets them; any bucket fed by two different tuples is a failure.
    Point counts may tie across tuples; the sets themselves must not.
    The mutant buckets varieties by point count alone and must fail
    wherever two tuples give the same count.
    """
    _check_sizes(q=q, m=m, l=l, flags_per_alpha=flags_per_alpha)
    alphas = _all_alphas(m, l)
    buckets = {}

    def trial(gf, alpha, rng):
        pts = SchubertVariety(random_flag(gf, m, alpha, rng=rng)).point_set()
        key = (len(pts),) if mutant == "bucket-by-point-count" else (len(pts), pts)
        new = key not in buckets
        buckets.setdefault(key, set()).add(alpha)
        return {"cases": 1, "failures": [], "distinct_point_sets": int(new)}

    def finish():
        return [
            {
                "problem": "point-set-shared-across-tuples",
                "alphas": sorted(list(a) for a in owners),
                "size": key[0],
            }
            for key, owners in buckets.items()
            if len(owners) > 1
        ]

    return _run_campaign(
        "alpha-uniqueness",
        trial,
        [alpha for alpha in alphas for _ in range(flags_per_alpha)],
        q, m, l, seed, mutant, {"bucket-by-point-count"},
        finish=finish,
        flags_per_alpha=flags_per_alpha,
        distinct_point_sets=0,
    )


# -- exhaustive stabilizer census --------------------------------------------


def stabilizer_census(
    omega,
    budget=10**7,
    include_frobenius=True,
    include_dual=False,
    oracle="subsample",
    subsample=200,
    seed=0,
):
    """Walk the whole semilinear group and classify each element.

    Counts the elements the flag criterion accepts as automorphisms of
    the variety, optionally replaying the point oracle on all of them
    (oracle="full"), a seeded subsample, or none.  Any disagreement is a
    mismatch and fails the census.
    """
    if oracle not in ("full", "subsample", "none"):
        raise ValueError(f"unknown oracle setting {oracle!r}")
    _exact(include_frobenius, "include_frobenius", bool)
    _exact(include_dual, "include_dual", bool)
    _exact(subsample, "subsample", int)
    _exact(seed, "seed", int)
    gf, m, l = omega.gf, omega.m, omega.l
    if include_dual and m != 2 * l:
        raise ValueError("contravariant elements need m = 2l")
    frob_powers = range(gf.e) if include_frobenius else range(1)
    dual_opts = (False, True) if include_dual else (False,)
    size = group_order(gf.q, m) * len(frob_powers) * len(dual_opts)
    if size > budget:
        raise BudgetExceededError(
            f"group has {size} elements, over the budget {budget}",
            requested=size,
            bound=budget,
        )
    started = time.perf_counter()
    if oracle == "full":
        targets = range(size)
    elif oracle == "subsample":
        targets = set(random.Random(seed).sample(range(size), min(subsample, size)))
    else:
        targets = ()
    # the oracle's point set, built only when the oracle runs at least once
    pts = omega.point_set() if targets else None
    fast_count = 0
    oracle_count = 0
    oracle_checked = 0
    mismatches = []
    idx = 0
    for dual in dual_opts:
        for k in frob_powers:
            for M in enumerate_invertible(gf, m):
                tau = SemilinearMap._trusted(gf, m, M, k, dual)
                fast = is_automorphism_fast(tau, omega)
                fast_count += fast
                if idx in targets:
                    truth = all(tau(W) in pts for W in pts)
                    oracle_checked += 1
                    oracle_count += truth
                    if truth != fast:
                        if len(mismatches) < MAX_RECORDED_FAILURES:
                            mismatches.append(
                                {
                                    "matrix": [list(row) for row in M],
                                    "frobenius_power": k,
                                    "dual": dual,
                                    "fast": fast,
                                    "oracle": truth,
                                }
                            )
                idx += 1
    return CensusReport(
        parameters={
            "q": gf.q,
            "m": m,
            "alpha": list(omega.alpha),
            "flag": omega.flag.to_json_dict(),
            "include_frobenius": include_frobenius,
            "include_dual": include_dual,
            "oracle": oracle,
            "subsample": subsample if oracle == "subsample" else None,
            "seed": seed,
        },
        group_size=size,
        tested=idx,
        fast_count=fast_count,
        oracle_count=oracle_count if oracle == "full" else None,
        oracle_checked=oracle_checked,
        mismatches=mismatches,
        elapsed=time.perf_counter() - started,
    )


CAMPAIGNS = {
    "redundancy": verify_redundancy,
    "flag-equality": verify_flag_equality,
    "dual-image": verify_dual_image,
    "covariant-criterion": verify_covariant_criterion,
    "automorphism-criterion": verify_automorphism_criterion,
    "alpha-uniqueness": verify_alpha_uniqueness,
}

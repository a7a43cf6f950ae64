"""Command line front end.

Exit codes: 0 success (or a passing check), 1 failing verification,
2 usage or input errors, 3 exceeded enumeration budgets.

One argparse parser per process holds a parser per verb.  A command
line that starts with a verb is parsed once, by that verb's parser
alone.  The whole parser runs only when there is no verb, an unknown
one, -h, or strings the verb's parser leaves over; it then prints the
help or the usage error.
"""

import argparse
import functools
import json
import random
import sys

from .errors import BudgetExceededError
from .field import field_from_order, make_field
from .grassmann import (
    Flag,
    _count_grassmannian,
    check_alpha,
    enumerate_grassmannian,
    gaussian_binomial,
    random_flag,
    standard_flag,
)
from .group import SemilinearMap, image_of_schubert, is_automorphism_fast, is_automorphism_oracle, random_semilinear
from .schubert import (
    SchubertVariety,
    alpha_nc,
    cell_count_polynomial,
    condition_word,
    dual_index_set,
    equal_fast,
    equal_oracle,
    equality_witness,
    polynomial_value,
)
from .verify import CAMPAIGNS, stabilizer_census


def _parse_alpha(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse dimension tuple {text!r}")
    return parts


def _nonnegative(text):
    """An int option of at least 0; argparse puts the option's name in the error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _resolve_field(args):
    if args.q is not None:
        if args.p is not None:
            raise ValueError("give --q or --p, not both")
        if args.e is not None:
            raise ValueError("give --q, or --p with --e")
        return field_from_order(args.q)
    if args.p is not None:
        return make_field(args.p, 1 if args.e is None else args.e)
    raise ValueError("a field is required: give --q or --p (with optional --e)")


def _emit(doc, out=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path):
    """The JSON document in a file, read as strict UTF-8 whatever the locale."""
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode())


def _load_variety(path):
    return SchubertVariety.from_json_dict(_load_json(path))


def _load_map(path):
    return SemilinearMap.from_json_dict(_load_json(path))


def _flag_for(args, gf, m, alpha):
    choice = getattr(args, "flag", None) or "standard"
    if choice == "standard":
        return standard_flag(gf, m, alpha)
    flag = Flag.from_json_dict(_load_json(choice))
    if flag.gf != gf or flag.m != m or flag.alpha != alpha:
        raise ValueError("flag file does not match the requested field/shape")
    return flag


# -- subcommand handlers -----------------------------------------------------


def _cmd_count(args):
    gf = _resolve_field(args)
    if (args.l is None) == (args.alpha is None):
        raise ValueError("give exactly one of --l or --alpha")
    if args.l is not None:
        doc = {
            "q": gf.q,
            "m": args.m,
            "l": args.l,
            "count": gaussian_binomial(args.m, args.l, gf.q),
        }
        if args.polynomial:
            if not 0 <= args.l <= args.m:
                raise ValueError(f"--l {args.l} is outside [0, {args.m}], so there is no polynomial")
            # G(0, m) is one point and has no dimension tuple
            full = tuple(range(args.m - args.l + 1, args.m + 1))
            doc["polynomial"] = list(cell_count_polynomial(full, args.m)) if full else [1]
    else:
        alpha = _parse_alpha(args.alpha)
        coeffs = cell_count_polynomial(alpha, args.m)
        doc = {
            "q": gf.q,
            "m": args.m,
            "alpha": list(alpha),
            "count": polynomial_value(coeffs, gf.q),
        }
        if args.polynomial:
            doc["polynomial"] = list(coeffs)
    _emit(doc)
    return 0


def _cmd_points(args):
    gf = _resolve_field(args)
    if (args.l is None) == (args.alpha is None):
        raise ValueError("give exactly one of --l or --alpha")
    if args.l is not None:
        if args.flag is not None:
            raise ValueError("--flag goes with --alpha")
        count = functools.partial(_count_grassmannian, gf, args.m, args.l)
        points = functools.partial(enumerate_grassmannian, gf, args.m, args.l)
        doc = {"q": gf.q, "m": args.m, "l": args.l}
    else:
        alpha = _parse_alpha(args.alpha)
        omega = SchubertVariety(_flag_for(args, gf, args.m, alpha))
        count, points = omega.count_points, omega.points
        doc = {"q": gf.q, "m": args.m, "alpha": list(alpha)}
    if args.count_only:
        doc["count"] = count(limit=args.limit)
    else:
        rows = [W.to_rows() for W in points(limit=args.limit)]
        doc["count"] = len(rows)
        doc["points"] = rows
    _emit(doc)
    return 0


def _cmd_alpha_nc(args):
    alpha = _parse_alpha(args.alpha)
    # without --m, only order and positivity can be checked
    alpha = check_alpha(alpha, max(alpha) if args.m is None else args.m)
    doc = {"alpha": list(alpha), "non_redundant": list(alpha_nc(alpha))}
    if args.m is not None:
        doc["m"] = args.m
        doc["condition_word"] = list(condition_word(alpha, args.m))
    _emit(doc)
    return 0


def _cmd_dual_alpha(args):
    alpha = check_alpha(_parse_alpha(args.alpha), args.m)
    dual = dual_index_set(alpha, args.m)
    _emit(
        {
            "alpha": list(alpha),
            "m": args.m,
            "dual": list(dual),
            "self_dual": dual == alpha,
        }
    )
    return 0


def _cmd_eq(args):
    o1 = _load_variety(args.first)
    o2 = _load_variety(args.second)
    fast = equal_fast(o1, o2)
    doc = {"fast": fast}
    rc = 0
    if args.oracle:
        truth = equal_oracle(o1, o2)
        doc["oracle"] = truth
        doc["agree"] = truth == fast
        if not doc["agree"]:
            rc = 1
    if args.witness and not fast:
        W = equality_witness(o1, o2)
        if W is not None:
            doc["witness"] = {
                "point": W.to_rows(),
                "in_first": o1.contains(W),
                # a point of another dimension is never on o2
                "in_second": W.dim == o2.l and o2.contains(W),
            }
    _emit(doc)
    return rc


def _cmd_image(args):
    tau = _load_map(args.map)
    omega = _load_variety(args.variety)
    image = image_of_schubert(tau, omega)
    _emit(image.to_json_dict())
    return 0


def _cmd_aut_check(args):
    tau = _load_map(args.map)
    omega = _load_variety(args.variety)
    doc = {}
    rc = 0
    if args.mode in ("fast", "both"):
        doc["fast"] = is_automorphism_fast(tau, omega)
    if args.mode in ("oracle", "both"):
        doc["oracle"] = is_automorphism_oracle(tau, omega)
    if args.mode == "both":
        doc["agree"] = doc["fast"] == doc["oracle"]
        if not doc["agree"]:
            rc = 1
    _emit(doc)
    return rc


def _cmd_verify(args):
    campaign = CAMPAIGNS.get(args.campaign)
    if campaign is None:
        raise ValueError(
            f"unknown campaign {args.campaign!r}; choose from {sorted(CAMPAIGNS)}"
        )
    # an option the campaign does not take raises TypeError naming it,
    # which main() reports as a usage error
    given = {
        name: getattr(args, name)
        for name in ("trials", "flags_per_alpha", "mode", "seed", "mutant")
        if getattr(args, name) is not None
    }
    report = campaign(args.q, args.m, args.l, **given)
    _emit(report.to_json_dict(include_elapsed=args.timing))
    return 0 if report.verdict == "pass" else 1


def _cmd_census(args):
    gf = _resolve_field(args)
    alpha = _parse_alpha(args.alpha)
    omega = SchubertVariety(_flag_for(args, gf, args.m, alpha))
    report = stabilizer_census(
        omega,
        budget=args.budget,
        include_frobenius=not args.no_frobenius,
        include_dual=args.include_dual,
        oracle=args.oracle,
        subsample=args.subsample,
        seed=args.seed,
    )
    _emit(report.to_json_dict(include_elapsed=args.timing))
    return 0 if report.verdict == "pass" else 1


def _cmd_gen_flag(args):
    gf = _resolve_field(args)
    alpha = _parse_alpha(args.alpha)
    flag = random_flag(gf, args.m, alpha, rng=random.Random(args.seed))
    _emit(flag.to_json_dict(), out=args.output)
    return 0


def _cmd_gen_map(args):
    gf = _resolve_field(args)
    dual = None if args.allow_dual else args.dual
    tau = random_semilinear(gf, args.m, rng=random.Random(args.seed), dual=dual)
    _emit(tau.to_json_dict(), out=args.output)
    return 0


# -- parser ------------------------------------------------------------------


def _add_field_args(sub):
    sub.add_argument("--q", type=int, help="field order (prime power)")
    sub.add_argument("--p", type=int, help="field characteristic")
    sub.add_argument("--e", type=int, help="extension degree over the prime field (with --p; default 1)")
    sub.add_argument("--m", type=_nonnegative, required=True, help="ambient dimension")


@functools.cache
def _parsers():
    """The whole parser and its verb -> parser map, built once per process.

    The map is the subparsers action's own choices: each value is the
    parser that the whole parser hands a verb's arguments to.
    """
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Exact computations with Schubert varieties over finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("count", help="count points by the cell polynomial")
    _add_field_args(s)
    s.add_argument("--l", type=int, help="count the whole Grassmannian of this dimension")
    s.add_argument("--alpha", help="comma separated dimension tuple, e.g. 2,4")
    s.add_argument("--polynomial", action="store_true", help="include the coefficients")
    s.set_defaults(func=_cmd_count)

    s = subs.add_parser("points", help="enumerate points as row-reduced matrices")
    _add_field_args(s)
    s.add_argument("--l", type=_nonnegative)
    s.add_argument("--alpha")
    s.add_argument("--flag", help="'standard' (default) or a flag JSON file")
    s.add_argument("--limit", type=_nonnegative, help="enumeration budget override")
    s.add_argument("--count-only", action="store_true")
    s.set_defaults(func=_cmd_points)

    s = subs.add_parser("alpha-nc", help="drop redundant entries of a dimension tuple")
    s.add_argument("--alpha", required=True)
    s.add_argument("--m", type=int, help="also emit the step word in this ambient dimension")
    s.set_defaults(func=_cmd_alpha_nc)

    s = subs.add_parser("dual-alpha", help="reflected complement of a dimension tuple")
    s.add_argument("--alpha", required=True)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=_cmd_dual_alpha)

    s = subs.add_parser("eq", help="compare two varieties")
    s.add_argument("first", help="variety or flag JSON file")
    s.add_argument("second", help="variety or flag JSON file")
    s.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    s.add_argument("--witness", action="store_true", help="report a separating point when unequal")
    s.set_defaults(func=_cmd_eq)

    s = subs.add_parser("image", help="image of a variety under a semilinear map")
    s.add_argument("map", help="map JSON file")
    s.add_argument("variety", help="variety or flag JSON file")
    s.set_defaults(func=_cmd_image)

    s = subs.add_parser("aut-check", help="does a map preserve a variety?")
    s.add_argument("map")
    s.add_argument("variety")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--fast", dest="mode", action="store_const", const="fast")
    group.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    s.set_defaults(func=_cmd_aut_check, mode="fast")

    s = subs.add_parser("verify", help="run a verification campaign")
    s.add_argument("campaign", help=f"one of {sorted(CAMPAIGNS)}")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=_nonnegative, required=True)
    s.add_argument("--l", type=_nonnegative, required=True)
    s.add_argument("--trials", type=_nonnegative)
    s.add_argument("--seed", type=int)
    s.add_argument("--flags-per-alpha", type=_nonnegative, dest="flags_per_alpha")
    s.add_argument("--mutant")
    s.add_argument("--mode")
    s.add_argument("--timing", action="store_true", help="include wall time in the report")
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("census", help="classify every group element against a variety")
    _add_field_args(s)
    s.add_argument("--alpha", required=True)
    s.add_argument("--flag", help="'standard' (default) or a flag JSON file")
    s.add_argument("--budget", type=_nonnegative, default=10**7)
    s.add_argument("--include-dual", action="store_true")
    s.add_argument("--no-frobenius", action="store_true")
    s.add_argument("--oracle", default="subsample", choices=["full", "subsample", "none"])
    s.add_argument("--subsample", type=_nonnegative, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--timing", action="store_true")
    s.set_defaults(func=_cmd_census)

    s = subs.add_parser("gen-flag", help="write a random flag as JSON")
    _add_field_args(s)
    s.add_argument("--alpha", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output")
    s.set_defaults(func=_cmd_gen_flag)

    s = subs.add_parser("gen-map", help="write a random semilinear map as JSON")
    _add_field_args(s)
    s.add_argument("--seed", type=int, default=0)
    variance = s.add_mutually_exclusive_group()
    variance.add_argument("--dual", action="store_true", help="force a contravariant map")
    variance.add_argument("--allow-dual", action="store_true", help="let the coin decide the variance")
    s.add_argument("-o", "--output")
    s.set_defaults(func=_cmd_gen_map)

    return parser, subs.choices


def _parse(argv):
    """argv parsed once, by its verb's parser when argv starts with a verb.

    That parser is the one the whole parser would hand the rest of argv
    to, so it takes the same options, applies the same defaults and
    raises the same usage errors.  No argv, a first string that is no
    verb (or -h), and strings the verb leaves over go to the whole
    parser, which prints the help or the usage error.
    """
    parser, verbs = _parsers()
    verb = verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    """Run one command line (default sys.argv[1:]) and return its exit code.

    argv is parsed once, on its verb's own parser (_parse).
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

"""Command-line interface.

Subcommands: ``auction`` (run the mechanism on an instance), ``analyze-sigma``
(family classification, stability verdict, and ratio sweep), ``analyze-partition``
(exact worst-case ratio via the feasible-family solver), ``plane`` (projective
plane construction), ``project`` (valuation projection table), and
``reproduce`` (bundled reference scenarios with PASS/FAIL checks).

Exit codes: 0 success, 1 invalid input or failed reproduction, 2 size budget
exceeded, 3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .core import (
    BudgetExceededError,
    GoodsUniverse,
    InternalInvariantError,
    InvalidInputError,
    SWEEP_GOODS_CAP,
    partition_from_sizes,
)
from .sigma import classify_family, project_profile, project_valuation
from .auction import TieBreak, run_vc
from .equilibrium import (
    check_bundling_equilibrium,
    disjoint_unanimity_profiles,
    empirical_ratio,
    random_monotone_profiles,
)
from .ineff import max_feasible_family, phi, projective_plane
from . import jsonio
from .reproduce import TARGETS, run_all, run_target


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "budget exceeded" here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None


def _parse_tie(text: str) -> TieBreak:
    if text == "canonical":
        return TieBreak.canonical()
    if text == "seller":
        return TieBreak.seller_favoring()
    if text.startswith("adversarial:"):
        try:
            buyer = int(text.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad tie-break {text!r}") from None
        if buyer < 1:
            raise InvalidInputError("adversarial tie-break buyers are numbered from 1")
        return TieBreak.adversarial_to(buyer - 1)
    raise InvalidInputError(f"bad tie-break {text!r} (canonical|seller|adversarial:i)")


def _emit(fmt: str, build, *args) -> None:
    """Print ``build(*args)`` as JSON or CSV; a value too long to print is invalid input."""
    try:
        payload = build(*args)
        text = jsonio.flatten_csv(payload) if fmt == "csv" else jsonio.dumps(payload)
    except ValueError as exc:  # an exact value past the interpreter's int-string limit
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise InvalidInputError(f"a result value has more than {limit} digits (the int-string limit)") from None
    sys.stdout.write(text)


def _profiles_for(universe: GoodsUniverse, spec: str, seed: int):
    if spec == "sweep":
        if universe.m > SWEEP_GOODS_CAP:
            raise BudgetExceededError(
                f"the unanimity sweep is capped at m <= {SWEEP_GOODS_CAP} goods, got m = {universe.m}"
            )
        return list(disjoint_unanimity_profiles(universe))
    if spec.startswith("random:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad profile spec {spec!r}") from None
        if count < 1:
            raise InvalidInputError("random profile count must be positive")
        return list(random_monotone_profiles(universe, n=3, count=count, seed=seed))
    raise InvalidInputError(f"bad profile spec {spec!r} (sweep|random:N)")


def _cmd_auction(args) -> int:
    profile = jsonio.parse_instance(_load_json(args.instance))
    tie = _parse_tie(args.tie)
    if tie.kind == "adversarial" and not 0 <= tie.buyer < profile.n:
        raise InvalidInputError("adversarial tie-break buyer is out of range")
    if args.family:
        family = jsonio.parse_family(_load_json(args.family))
        if family.universe != profile.universe:
            raise InvalidInputError("instance and family must share the same goods")
        outcome = run_vc(project_profile(profile, family), tie, true_profile=profile)
    else:
        outcome = run_vc(profile, tie)
    _emit(args.format, jsonio.outcome_payload, outcome)
    return 0


def _cmd_analyze_sigma(args) -> int:
    family = jsonio.parse_family(_load_json(args.family))
    universe = family.universe
    cls = classify_family(family)
    profiles = _profiles_for(universe, args.profiles, args.seed)
    verdict = check_bundling_equilibrium(family, profiles)
    payload = {
        "family": jsonio.family_payload(family),
        "classification": jsonio.classification_payload(universe, cls),
        "communication_complexity": len(family),
        "verdict": "equilibrium-consistent" if verdict.consistent else "violated",
        "profiles_checked": verdict.profiles_checked,
        "witness": None,
        "witness_gap": None,
        "ratio_lower_bound": None,
    }
    if verdict.witness is not None:
        cx = verdict.witness
        payload["witness"] = {
            "deviator": cx.deviator + 1,
            "profile": jsonio.profile_payload(cx.profile),
            "tie_break_allocation": jsonio.allocation_payload(cx.allocation),
        }
        payload["witness_gap"] = jsonio.fraction_repr(verdict.witness_gap)
    if universe.full_mask in family.bundles:
        estimate = empirical_ratio(family, max(universe.m, 3), profiles)
        payload["ratio_lower_bound"] = jsonio.fraction_repr(estimate.ratio)
    _emit(args.format, lambda: payload)
    return 0


def _cmd_analyze_partition(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise InvalidInputError(f"bad part sizes {args.sizes!r}") from None
    partition = partition_from_sizes(sizes)
    started = time.monotonic()
    result = max_feasible_family(partition)
    elapsed = time.monotonic() - started
    payload = {
        "sizes": sizes,
        "k": partition.k,
        "m": sum(sizes),
        "r_pi": result.s,
        "witness_family": [list(t) for t in result.family.index_sets()],
        "exhausted_targets": list(result.exhausted),
        "theorem3_bound": jsonio.fraction_repr(result.upper_bound),
        "phi_k": jsonio.fraction_repr(phi(partition.k)),
        "communication_complexity": 1 << partition.k,
        "runtime": round(elapsed, 3) if args.timings else None,
    }
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    _emit(args.format, lambda: payload)
    return 0


def _cmd_plane(args) -> int:
    plane = projective_plane(args.q)
    payload = {
        "q": plane.q,
        "points": plane.n_points,
        "lines": sorted(sorted(line) for line in plane.lines),
    }
    _emit(args.format, lambda: payload)
    return 0


def _cmd_project(args) -> int:
    valuation = jsonio.parse_single_valuation(_load_json(args.valuation))
    family = jsonio.parse_family(_load_json(args.family))
    if family.universe != valuation.universe:
        raise InvalidInputError("valuation and family must share the same goods")
    projected = project_valuation(valuation, family)
    _emit(args.format, jsonio.valuation_payload, valuation.universe, projected)
    return 0


def _cmd_reproduce(args) -> int:
    if args.target == "all":
        report = run_all(seed=args.seed, q=args.q)
        reports = report["targets"]
    else:
        report = run_target(args.target, q=args.q, seed=args.seed)
        reports = [report]
    for sub in reports:
        for check in sub["checks"]:
            line = (
                f"[{check['status']}] {sub['target']} {check['name']}: "
                f"claimed {check['claimed']}, computed {check['computed']}"
            )
            print(line, file=sys.stderr)
    _emit(args.format, lambda: report)
    return 0 if report["passed"] else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="vcbundle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("auction", help="run the mechanism on a JSON instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--family", help="buyers report projections onto this family")
    p.add_argument("--tie", default="canonical")
    add_common(p)
    p.set_defaults(func=_cmd_auction)

    p = sub.add_parser("analyze-sigma", help="classify a family and verify stability")
    p.add_argument("--family", required=True)
    p.add_argument("--profiles", default="sweep", help="sweep | random:N")
    p.add_argument("--seed", type=int, default=0, help="seed for --profiles random:N")
    add_common(p)
    p.set_defaults(func=_cmd_analyze_sigma)

    p = sub.add_parser("analyze-partition", help="exact worst-case ratio of a partition")
    p.add_argument("--sizes", required=True, help="comma-separated part sizes, e.g. 3,3,4")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in the JSON (breaks byte determinism)")
    add_common(p)
    p.set_defaults(func=_cmd_analyze_partition)

    p = sub.add_parser("plane", help="construct a projective plane")
    p.add_argument("--q", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_plane)

    p = sub.add_parser("project", help="project a valuation onto a family")
    p.add_argument("--valuation", required=True)
    p.add_argument("--family", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("reproduce", help="re-run a bundled reference scenario")
    p.add_argument("target", choices=TARGETS + ("all",))
    p.add_argument("--q", type=int, default=2, help="plane order for the thm4 target")
    p.add_argument("--seed", type=int, default=0, help="seed for remark1's random profiles")
    add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"vcbundle: error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"vcbundle: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"vcbundle: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

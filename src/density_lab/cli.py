"""Command-line front end.

    density-lab <subcommand> --instance <file> [flags]

Subcommands: density, diffset, syndetic, cover, partition, pipeline, demo,
selftest. Human-readable tables go to stdout; pass --out FILE to also write
the serialized report. Exit codes: 0 success, 2 parse error, 3 precondition
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .additive import gap_analysis, syndetic_check
from .config import DEFAULT_CAPS, DEFAULT_ESTIMATION, EstimationParams
from .density import (
    CenteredCube,
    CustomK,
    IntervalWindow,
    Witness,
    auud_window,
    classical_upper_density,
    delta_density,
    hegyvari_density,
    kahane_density,
    kahane_density_finite_group,
    oracle_counting_sweep,
    window_density_profile,
    window_profile_schedule,
)
from .errors import (
    InstanceParseError,
    PreconditionError,
    VerificationError,
)
from .groups import (
    FiniteAbelian,
    RealLine,
    SigmaFiniteChain,
    ZLattice,
    all_finite_abelian_up_to,
)
from .intervals import IntervalUnion, PeriodicPattern
from .instances import (
    INTERVALS,
    Instance,
    canonical_json,
    parse_instance,
    to_jsonable,
)
from .rational import is_infinite, rat, rat_float, rat_str
from .sets import (
    AccumulationPoint,
    Counting,
    CylinderSet,
    DiracAtZero,
    FinitePoints,
    HaarTrace,
    PeriodicDiscrete,
    PerturbedLattice,
    difference_set,
)
from .structure import greedy_translates, partition_by_coloring, syndetic_pipeline
from .windows import real_mass

EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERIFICATION = 2, 3, 4


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{rat_str(value)} (= {rat_float(value)})"
    if is_infinite(value):
        cert = value.certificate
        kind = cert[0] if isinstance(cert, tuple) and cert else None
        if kind == "diverging-schedule":
            return "Infinite (certified: eta schedule)"
        if kind == "accumulation":
            return "Infinite (certified: accumulation window)"
        return "Infinite (certified)"
    return str(value)


def _cell(x) -> str:
    if isinstance(x, Fraction):
        return rat_str(x)
    return "Infinite" if is_infinite(x) else str(x)


def _print_header(args):
    print(f"density-lab {__version__}")
    print(
        f"defaults: tol={rat_str(DEFAULT_ESTIMATION.tol)} r0={rat_str(DEFAULT_ESTIMATION.r0)} "
        f"k_max={DEFAULT_ESTIMATION.k_max} oracle_cap={DEFAULT_CAPS.oracle_order} "
        f"cover_cap={DEFAULT_CAPS.exact_cover_cells}"
    )
    print("values: p/q rationals are authoritative; decimals are 6-digit approximations")


def _load(args) -> Instance:
    with open(args.instance, "r", encoding="utf-8") as f:
        text = f.read()
    args._digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_instance(text)


def _pick(instance: Instance, name, what="object", flag="--object"):
    if name:
        if name not in instance.objects:
            raise PreconditionError(f"no {what} named {name!r} in the instance")
        return instance.objects[name]
    if len(instance.objects) == 1:
        return next(iter(instance.objects.values()))
    raise PreconditionError(
        f"instance has {len(instance.objects)} objects; pick one with {flag}"
    )


def _estimation_params(args, instance) -> EstimationParams:
    params = instance.params
    tol = rat(args.tol) if args.tol else params.get("tol", DEFAULT_ESTIMATION.tol)
    r0 = rat(args.r0) if args.r0 else params.get("r0", DEFAULT_ESTIMATION.r0)
    k_max = args.kmax if args.kmax is not None else params.get("k_max", DEFAULT_ESTIMATION.k_max)
    estimation = EstimationParams(tol=tol, r0=r0, k_max=k_max)
    if getattr(args, "rmax", None):
        # cap the geometric schedule r0 * 2^k at rmax
        if args.kmax is not None:
            raise PreconditionError("--kmax, --rmax: each sets the last window profile radius; "
                                    "give one")
        rmax = rat(args.rmax)
        if rmax < r0:
            raise PreconditionError(
                f"--rmax {rat_str(rmax)} is below the first radius r0 = {rat_str(r0)}"
            )
        k_max = 0
        while r0 * (2 ** (k_max + 1)) <= rmax:
            k_max += 1
        estimation = replace(estimation, k_max=k_max)
    return estimation


def _window_shape(spec: str, group):
    if spec in (None, "auto"):
        return None
    if spec == "cube":
        return CenteredCube()
    if spec == "interval":
        return IntervalWindow()
    try:
        return CustomK(IntervalUnion(INTERVALS.parse(json.loads(spec), group)))
    except (ValueError, InstanceParseError) as exc:  # the JSON or its pairs
        raise InstanceParseError(
            f"--K must be cube, interval or a JSON list of [a, b] pairs, got {spec!r}"
        ) from exc


def _emit(args, results) -> dict:
    return _emit_jsonable(args, to_jsonable(results))


def _emit_jsonable(args, results) -> dict:
    """_emit for results already in their to_jsonable form."""
    report = {
        "command": " ".join(args._argv),
        "input_digest": getattr(args, "_digest", "builtin"),
        "library_version": __version__,
        "results": results,
        "wall_time_s": round(time.time() - args._t0, 6),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(canonical_json(report))
        print(f"report written to {args.out}")
    return report


# ---------------------------------------------------------------------------
# subcommands


# density flags that set the window profile, meaningless for the other notions
PROFILE_FLAGS = ("K", "tol", "r0", "kmax", "rmax")


def cmd_density(args) -> int:
    instance = _load(args)
    nu = _pick(instance, args.object)
    group = instance.group
    notion = args.notion
    # a flag the run would ignore exits 3; unset flags are None, and
    # --mode closed-form is the default run of every notion
    for flags, valid, what in (
        (PROFILE_FLAGS, notion == "window", "window profile options, valid with --notion window"),
        (("mode", "cap"), notion in ("kahane", "delta") and isinstance(group, FiniteAbelian),
         "oracle options, valid with --notion kahane or delta on a finite_abelian group"),
        (("nmax",), notion == "hegyvari", "chain option, valid with --notion hegyvari"),
    ):
        given = [f"--{f}" for f in flags if getattr(args, f) not in (None, "closed-form")]
        if given and not valid:
            raise PreconditionError(f"{', '.join(given)}: {what} only")
    cap = DEFAULT_CAPS.oracle_order if args.cap is None else args.cap
    rows = ()
    if notion == "classical":
        report = classical_upper_density(nu.of if isinstance(nu, Counting) else nu, group)
    elif notion == "window":
        params = _estimation_params(args, instance)
        K = _window_shape(args.K, group)
        report = auud_window(nu, group)
        rows = tuple(window_profile_schedule(nu, group, K, params))
        report = replace(
            report,
            witness=Witness("window-profile", rows),
            settings=(
                ("tol", rat_str(params.tol)),
                ("r0", rat_str(params.r0)),
                ("k_max", str(params.k_max)),
            ),
        )
    elif notion == "kahane":
        if isinstance(group, FiniteAbelian):
            report = kahane_density_finite_group(nu, group, mode=args.mode, cap=cap)
        else:
            report = kahane_density(nu, group)
    elif notion == "delta":
        report = delta_density(nu, group, mode=args.mode, cap=cap)
    elif notion == "hegyvari":
        if not isinstance(group, SigmaFiniteChain):
            raise PreconditionError("the chain density needs a sigma_finite_chain group")
        target = nu.of if isinstance(nu, Counting) else nu
        report = hegyvari_density(target, group, n_max=args.nmax)
    else:
        raise PreconditionError(f"unknown notion {notion!r}")
    print(f"{notion} density: {_fmt(report.value)} [{report.method}]")
    for note in report.annotations:
        print(f"  note: {note}")
    if rows:
        print("  window profile (finite-r evidence; the value above is exact):")
        print(f"  {'r':>8} {'sup ratio':<12} least argmax")
        for r, ratio, argmax in rows:
            print(f"  {rat_str(r):>8} {_cell(ratio):<12} {_cell(argmax)}")
    _emit(args, report)
    return 0


def cmd_diffset(args) -> int:
    instance = _load(args)
    s = _pick(instance, args.object)
    window = tuple(map(rat, args.window)) if args.window else None
    if window is None and isinstance(s, PerturbedLattice):  # the file's default
        window = instance.params.get("window")
    result = difference_set(s, instance.group, window=window)
    print(f"difference set of {type(s).__name__}: {type(result).__name__}")
    result = to_jsonable(result)  # serialized once, for the echo and the report
    print(f"  {result}")
    _emit_jsonable(args, result)
    return 0


def cmd_syndetic(args) -> int:
    instance = _load(args)
    if args.object is not None:
        raise PreconditionError("--object: syndetic names its sets with --set and --translates")
    s = _pick(instance, args.set, "set", "--set")
    k = _pick(instance, args.translates, "translate set", "--translates")
    cert = syndetic_check(s, k, instance.group)
    print(f"syndetic: {'verified' if cert.verified else 'FAILED'}")
    if not cert.verified:
        print(f"  least uncovered point: {cert.covering_witness}")
    elif isinstance(cert.covering_witness, dict):
        print("  cell -> covering translate")
        rows = sorted(cert.covering_witness.items())
        for cell, translate in rows[:32]:
            print(f"  {cell} -> {translate}")
        if len(rows) > 32:
            print(f"  ... {len(rows) - 32} more cells")
    _emit(args, cert)
    return 0 if cert.verified else EXIT_VERIFICATION


def cmd_cover(args) -> int:
    instance = _load(args)
    a = _pick(instance, args.object)
    result = greedy_translates(a, instance.group)
    print(f"translates B = {list(result.translates)}")
    print(f"bound {result.size_bound}, used {result.size}")
    print(f"cover verified: {result.verified_cover}; packing verified: {result.verified_packing}")
    _emit(args, result)
    return 0


def cmd_partition(args) -> int:
    instance = _load(args)
    s = _pick(instance, args.object)
    h = instance.objects.get(args.H) if args.H else instance.objects.get("H")
    if h is None:
        raise PreconditionError("partition needs an interval union named by --H")
    result = partition_by_coloring(s, h, instance.group)
    print(f"classes: {result.n} (window bound k = {rat_str(result.k_bound)})")
    for i, cl in enumerate(result.classes):
        print(f"  class {i}: {to_jsonable(cl)}")
    _emit(args, result)
    return 0


def cmd_pipeline(args) -> int:
    instance = _load(args)
    s = _pick(instance, args.object)
    h = _pick(instance, args.H, "H") if args.H else None
    epsilon = rat(args.epsilon) if args.epsilon else instance.params.get("epsilon", Fraction(1, 2))
    result = syndetic_pipeline(s, instance.group, epsilon=epsilon, H=h)
    print(f"rho = {rat_str(result.rho)}; classes = {result.partition.n}; "
          f"selected class {result.selected_class} with rho_j = {rat_str(result.rho_j)}")
    print(f"translates B = {[rat_str(b) for b in result.cover.translates]} "
          f"(bound {result.cover.size_bound})")
    print(f"mu(T) = {_fmt(result.mu_T)}; covering verified: {result.covering_verified}")
    print(f"measure bound (1+eps)mu(H-H)/mu(H) = {_fmt(result.remark_bound)}: "
          f"{'holds' if result.remark_bound_holds else 'fails'}")
    print(f"derived bound (1+eps)mu(H-H)^2/mu(H) = {_fmt(result.derived_bound)}: "
          f"{'holds' if result.derived_bound_holds else 'fails'}")
    _emit(args, result)
    return 0


def cmd_demo(args) -> int:
    name = args.name
    runner = {
        "totik": _demo_totik,
        "accumulation": _demo_accumulation,
        "erdos-sarkozy": _demo_erdos_sarkozy,
        "hegyvari": _demo_hegyvari,
        "theorem3": _demo_theorem3,
    }.get(name)
    if runner is None:
        raise PreconditionError(f"unknown demo {name!r}")
    results = runner()
    _emit(args, results)
    return 0


def _demo_totik():
    group = RealLine()
    nu = DiracAtZero()
    delta = delta_density(nu, group)
    print("A unit mass at 0 on the line separates the two density notions.")
    cert = delta.value.certificate
    schedule = cert[3]
    print("finite-test-set density: Infinite; lower-bound schedule (eta, 1/eta):")
    for eta, bound in schedule:
        print(f"  eta={rat_str(eta):>10}  bound={rat_str(bound)}")
    profile = window_density_profile(nu, group, IntervalWindow(), [Fraction(10**6)])
    r, ratio, _ = profile[0]
    print(f"window density profile at r={rat_str(r)}: {rat_str(ratio)} <= 1/1000000")
    assert ratio <= Fraction(1, 10**6)
    kah = kahane_density(nu, group)
    print(f"compact-test-set density: {_fmt(kah.value)} (the gap is exhibited)")
    return {"delta": delta, "window_profile": profile, "kahane": kah}


def _demo_accumulation():
    group = RealLine()
    pts = tuple(Fraction(1, n) for n in range(1, 101))
    s = FinitePoints(pts, accumulation=(AccumulationPoint(Fraction(0), "above"),))
    mass = real_mass(Counting(s), IntervalUnion.closed(rat("-1/100"), rat("1/100")))
    print("points 1/n accumulate at 0: counting mass of [-1/100, 1/100] is", mass)
    diff = difference_set(s, group)
    D, xs = diff._D, diff._extra  # its held ints: [-1, 1] is [-D, D]
    inside = bisect_right(xs, D) - bisect_left(xs, -D)
    print(f"truncated difference set has {len(xs)} points, all within [-1, 1]:",
          inside == len(xs))
    try:
        syndetic_pipeline(s, group)
        raise AssertionError("pipeline should reject an accumulating configuration")
    except PreconditionError as exc:
        print(f"pipeline rejects the instance (precondition): {exc}")
    return {"window_mass": mass, "difference_points_within_1": inside}


def _demo_erdos_sarkozy():
    group = ZLattice(1)
    a = PeriodicDiscrete.line(10, [0, 1, 4])
    d = difference_set(a, group)
    gaps = gap_analysis(d, group)
    cover = greedy_translates(a, group)
    max_b = max(b[0] for b in cover.translates)
    print(f"A = {{0,1,4}} mod 10, upper density 3/10")
    print(f"positive elements of A - A start: {gaps.positive_elements[:12]}")
    print(f"max gap = {gaps.max_gap} (certified by period {gaps.period})")
    print(f"greedy translates B = {[b[0] for b in cover.translates]}, max element {max_b}")
    print(f"chain check: max_gap - 1 = {gaps.max_gap - 1} <= max(B) = {max_b}:",
          gaps.max_gap - 1 <= max_b)
    assert gaps.max_gap - 1 <= max_b
    return {"gaps": gaps, "cover": cover}


def _demo_hegyvari():
    chain = SigmaFiniteChain((2,) * 5)
    a = CylinderSet(1, ((0,),))
    report = hegyvari_density(a, chain)
    print(f"chain of Z_2 summands, A = first coordinate 0: density {_fmt(report.value)}")
    cover = greedy_translates(a, chain)
    print(f"translates B = {list(cover.translates)}, bound {cover.size_bound}")
    assert report.value == Fraction(1, 2)
    return {"density": report, "cover": cover}


def _demo_theorem3():
    group = RealLine()
    pattern = PeriodicPattern.from_pairs(1, [(0, rat("1/3"))])
    nu = HaarTrace(pattern)
    shapes = {
        "interval [x-r, x+r]": IntervalWindow(),
        "unit block [0,1]": CustomK(IntervalUnion.closed(0, 1)),
        "split block [0,1/2]u[3/4,5/4]": CustomK(
            IntervalUnion(((rat("0"), rat("1/2")), (rat("3/4"), rat("5/4"))))
        ),
    }
    radii = [Fraction(2**k) for k in range(3, 13)]
    results = {}
    print(f"pattern [0,1/3] mod 1, exact density {rat_str(pattern.density)}")
    for label, K in shapes.items():
        profile = window_density_profile(nu, group, K, radii)
        last = profile[-1]
        results[label] = profile
        print(f"  {label}: ratio at r={rat_str(last[0])} is {rat_str(last[1])}"
              f" (= {rat_float(last[1])})")
    return {"exact": pattern.density, "profiles": results}


def cmd_selftest(args) -> int:
    cap = args.cap
    if cap < 1:
        raise PreconditionError(f"selftest cap {cap} is below 1: there is no group to sweep")
    if cap > DEFAULT_CAPS.oracle_order + 2:
        raise PreconditionError(f"selftest cap {cap} above the configured maximum")
    total_groups = 0
    total_subsets = 0
    failures = []
    t0 = time.time()
    for group in all_finite_abelian_up_to(cap):
        t = time.time()
        mismatches, size = oracle_counting_sweep(group)
        total_groups += 1
        total_subsets += size
        status = "ok" if not mismatches else "MISMATCH"
        print(f"  order {group.order:>2} moduli {group.moduli}: {size} subsets {status}"
              f" {time.time() - t:.2f}s")
        failures.extend(mismatches)
    print(f"selftest: {total_groups} groups, {total_subsets} subsets, "
          f"{len(failures)} mismatches, {time.time() - t0:.2f}s")
    _emit(args, {"groups": total_groups, "subsets": total_subsets, "failures": len(failures)})
    if failures:
        group, A, got, expect, C, V = failures[0]
        above = "" if V is None else f"; at C mask {C}, V mask {V} lies above {expect}"
        print(f"FIRST MISMATCH: group {group.moduli} subset mask {A}: got {got}, "
              f"expected {expect}{above}")
        return EXIT_VERIFICATION
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once on first use: it does not depend on the argv."""
    parser = argparse.ArgumentParser(prog="density-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("--instance", required=True, help="instance file (JSON)")
            p.add_argument("--object", default=None, help="object name inside the instance")
        p.add_argument("--out", default=None, help="write the serialized report here")

    p = sub.add_parser("density", help="evaluate a density notion")
    common(p)
    p.add_argument("--notion", required=True,
                   choices=["classical", "window", "kahane", "delta", "hegyvari"])
    p.add_argument("--K", default=None,
                   help="window profile shape: cube | interval | JSON interval list")
    p.add_argument("--tol", default=None, help="window profile stopping tolerance")
    p.add_argument("--r0", default=None, help="first window profile radius")
    p.add_argument("--kmax", type=int, default=None, help="window profile radii r0 * 2^k, k <= kmax")
    p.add_argument("--rmax", default=None, help="cap the window profile radii at this one")
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--mode", default="closed-form", choices=["closed-form", "oracle"])
    p.add_argument("--cap", type=int, default=None, help="oracle group order cap")

    p = sub.add_parser("diffset", help="difference set")
    common(p)
    p.add_argument("--window", nargs=2, default=None, metavar=("LO", "HI"),
                   help="truncation window of a perturbed lattice (any other set exits 3)")

    p = sub.add_parser("syndetic", help="verify S + K = G")
    common(p)
    p.add_argument("--set", default=None, help="name of S")
    p.add_argument("--translates", default=None, help="name of K")

    p = sub.add_parser("cover", help="greedy translate set")
    common(p)

    p = sub.add_parser("partition", help="difference-avoiding partition")
    common(p)
    p.add_argument("--H", default=None, help="name of the window set H")

    p = sub.add_parser("pipeline", help="full syndetic cover pipeline")
    common(p)
    p.add_argument("--H", default=None, help="name of the window set H (else auto)")
    p.add_argument("--epsilon", default=None)

    p = sub.add_parser("demo", help="canned scenarios")
    p.add_argument("name", choices=["totik", "accumulation", "erdos-sarkozy",
                                    "hegyvari", "theorem3"])
    common(p, needs_instance=False)

    p = sub.add_parser("selftest", help="inf-sup oracle sweep over every subset, each "
                       "witness C re-checked against every V")
    p.add_argument("--cap", type=int, default=6)
    common(p, needs_instance=False)

    return parser


HANDLERS = {
    "density": cmd_density,
    "diffset": cmd_diffset,
    "syndetic": cmd_syndetic,
    "cover": cmd_cover,
    "partition": cmd_partition,
    "pipeline": cmd_pipeline,
    "demo": cmd_demo,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["density-lab"] + argv
    args._t0 = time.time()
    _print_header(args)
    try:
        return HANDLERS[args.command](args)
    except InstanceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.counterexample is not None:
            print(f"counterexample: {exc.counterexample!r}", file=sys.stderr)
        return EXIT_VERIFICATION
    except FileNotFoundError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


class _ClosedPipeGuard:
    """stdout for a reader that may close the pipe early (`| head -1`): the
    first BrokenPipeError points the stream's file descriptor at os.devnull,
    as the Python signal docs advise, and the run goes on to its own exit
    code instead of a traceback with exit 1."""

    def __init__(self, stream):
        self._stream = stream

    def _guarded(self, op, *args):
        try:
            op(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self._stream.fileno())
            os.close(devnull)

    def write(self, text):
        self._guarded(self._stream.write, text)
        return len(text)

    def flush(self):
        self._guarded(self._stream.flush)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def console_main():
    sys.stdout = _ClosedPipeGuard(sys.stdout)
    code = main()
    sys.stdout.flush()  # a block-buffered stdout meets the closed pipe only here
    sys.exit(code)


if __name__ == "__main__":
    console_main()

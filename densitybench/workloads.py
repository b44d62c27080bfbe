"""The benchmark's workloads: four groups of ops, run two to a workload.

Each builder draws its inputs from the seed, constructs them through the
library's public constructors and returns a list of Case objects. A Case
holds one op (a call into the public API), a function computing its exact
reference result from the raw generated parameters (see reference.py), a
check comparing a result with that reference, and optionally a witness
re-evaluation through a second public function.

Every group of ops has a fixed design: the sizes and shapes that set an
op's cost are the same for every seed, and the seed draws positions, subsets
and weights. Every seed thus gets the same spread of op costs, and tails are
made of several ops of equal cost rather than one.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

F = Fraction


@dataclass
class Case:
    label: str
    call: Callable[[], object]
    expect: Callable[[], object]  # computes the reference; run once, untimed
    check: Callable[[object, object], Optional[str]]  # (result, reference) -> mismatch
    witness: Optional[Callable[[object], Optional[str]]] = None


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# line-scan: shift suprema and window profiles on the real line

LINE_RADII = (4, 10, 25)


def _line_measure(dl, rng, family, size, period):
    """(library measure, reference measure, mean density or None unless fully
    periodic) of one family; positions are drawn from rng."""
    parts, periodic_atoms, finite_atoms, traces = [], [], [], []
    if family in ("periodic", "periodic+dirac", "periodic+pattern"):
        residues = [F(k, 120) for k in rng.sample(range(120 * period), size)]
        parts.append(dl.Counting(dl.PeriodicPoints(F(period), tuple(residues))))
        periodic_atoms.append((F(period), [(r, F(1)) for r in residues]))
    if family in ("perturbed", "perturbed+dirac"):
        n_removed = size // 5
        span = size // 2
        extra = rng.sample([F(k, 5) for k in range(span * 5) if k % 5], size - n_removed)
        removed = [F(k) for k in rng.sample(range(span), n_removed)]
        parts.append(dl.Counting(dl.PerturbedLattice(F(1), tuple(extra), tuple(removed))))
        periodic_atoms.append((F(1), [(F(0), F(1))]))
        finite_atoms += [(p, F(1)) for p in extra] + [(p, F(-1)) for p in removed]
    if family in ("pattern", "pattern+dirac", "periodic+pattern"):
        n_iv = size if family != "periodic+pattern" else 5 + size % 16
        cuts = sorted(F(k, 120) for k in rng.sample(range(1, 120 * period), 2 * n_iv))
        pairs = list(zip(cuts[::2], cuts[1::2]))
        parts.append(dl.HaarTrace(dl.PeriodicPattern.from_pairs(F(period), pairs)))
        traces.append((F(period), pairs))
    if family.endswith("+dirac"):
        parts.append(dl.DiracAtZero())
        finite_atoms.append((F(0), F(1)))
    nu = parts[0] if len(parts) == 1 else dl.MeasureSum(tuple(parts))
    model = ref.LineMeasure(periodic_atoms, finite_atoms, traces)
    if finite_atoms:
        return nu, model, None
    density = sum((len(atoms) / p for p, atoms in periodic_atoms), F(0))
    density += sum((ref.length(pairs) / p for p, pairs in traces), F(0))
    return nu, model, density


def _line_window(dl, kind, r):
    """(window shape K, scaled window, reference window, normalizer |rK|)."""
    r = F(r)
    if kind == "interval":
        return dl.IntervalWindow(), dl.IntervalUnion.closed(-r, r), ((-r, r),), 2 * r
    pairs = ((F(0), F(1)),) if kind == "block" else ((F(0), F(1, 2)), (F(3, 4), F(5, 4)))
    shape = dl.IntervalUnion(pairs)
    scaled = tuple((a * r, b * r) for a, b in pairs)
    return dl.CustomK(shape), shape.scale(r), scaled, r


def _sup_case(dl, nu, model, window, ref_window, normalizer, profile, K, r):
    def check(res, want):
        value, argmax = want
        if profile:
            ((r_out, got, got_x),) = res
            reason = _mismatch("ratio", got, value / normalizer)
        else:
            got, got_x = res.value, res.argmax
            reason = _mismatch("sup", got, value)
        if argmax is not None:
            reason = reason or _mismatch("least argmax", got_x, argmax)
        return reason

    def witness(res):
        x = res[0][2] if profile else res.argmax
        got = res[0][1] * normalizer if profile else res.value
        return _mismatch("real_mass at argmax", dl.real_mass(nu, window.translate(x)), got)

    if profile:
        call = lambda: dl.window_density_profile(nu, dl.RealLine(), K, [F(r)])
    else:
        call = lambda: dl.real_shift_sup(nu, window)
    return Case(
        "window_density_profile" if profile else "real_shift_sup",
        call,
        lambda: ref.shift_sup(model, ref_window),
        check,
        witness,
    )


def _witness_case(dl, nu, model, window, ref_window, gamma):
    threshold = gamma * window.length

    def expect():
        x = ref.threshold_witness(model, ref_window, threshold)
        return x, (None if x is not None else ref.shift_sup(model, ref_window))

    def check(res, want):
        x, scan = want
        if x is not None:
            return _mismatch("least witness", res, x)
        if not isinstance(res, dl.NotFound):
            return f"expected NotFound, got {res!r}"
        return _first(
            _mismatch("scanned sup", res.scanned_sup, scan[0]),
            _mismatch("argmax", res.argmax, scan[1]),
        )

    def witness(res):
        if isinstance(res, dl.NotFound):
            return None
        mass = dl.real_mass(nu, window.translate(res))
        return None if mass >= threshold else f"mass {mass} at the witness is below {threshold}"

    call = lambda: dl.translation_witness(nu, dl.RealLine(), window, gamma)
    return Case("translation_witness", call, expect, check, witness)


LINE_FAMILIES = {
    # family: size range (residues, perturbations or intervals)
    "periodic": (20, 100),
    "perturbed": (100, 400),
    "pattern": (5, 20),
    "periodic+dirac": (5, 15),
    "perturbed+dirac": (100, 400),
    "pattern+dirac": (3, 8),
    "periodic+pattern": (20, 60),
}
WINDOW_KINDS = ("interval", "block", "split")
# each (family, kind, radius) slot is drawn this many times, once per size
# stratum: an op's cost moves with the drawn positions, and more ops keep the
# workload's quantiles from resting on a few of them
LINE_REPEATS = 3


def build_line_scan(dl, seed: int, smoke: bool = False) -> list[Case]:
    """A fixed design: every family meets every window kind and radius
    LINE_REPEATS times, with size stratum and period laid out as orthogonal
    Latin squares over (kind, radius), so each kind and radius sees every
    stratum and period, and each slot every stratum. The seed draws the
    positions and jitters each size within its stratum."""
    rng = random.Random(f"line-scan:{seed}")
    cases = []
    for f, (family, (lo, hi)) in enumerate(LINE_FAMILIES.items()):
        if smoke:
            lo, hi = max(1, lo // 4), max(2, lo // 2)
        for k, kind in enumerate(WINDOW_KINDS):
            for i, r in enumerate(LINE_RADII):
                for rep in range(1 if smoke else LINE_REPEATS):
                    if smoke and (k + i) % 3:
                        continue
                    stratum = (k + i + f + rep) % 3
                    mid = lo + (hi - lo) * (2 * stratum + 1) // 6
                    size = max(1, mid + rng.randint(-(hi - lo) // 30, (hi - lo) // 30))
                    period = 1 + (2 * k + i) % 3
                    nu, model, density = _line_measure(dl, rng, family, size, period)
                    K, window, ref_window, normalizer = _line_window(dl, kind, r)
                    ops = ("sup", "profile", "witness") if density is not None else ("sup", "profile")
                    op = ops[(k + 2 * i + f + rep) % len(ops)]
                    if op == "witness":
                        gamma = density * (1 + F(rng.randint(0, 3), 8))
                        cases.append(_witness_case(dl, nu, model, window, ref_window, gamma))
                    else:
                        cases.append(_sup_case(dl, nu, model, window, ref_window, normalizer,
                                               op == "profile", K, r))
    return cases


# ---------------------------------------------------------------------------
# discrete: Z^2 cube scans, covers on Z and finite groups, the inf-sup oracle


def _zd_case(dl, rng, m1, m2, r):
    cells = [(i, j) for i in range(m1) for j in range(m2)]
    residues = rng.sample(cells, max(1, round(m1 * m2 / 4)))
    nu = dl.Counting(dl.PeriodicDiscrete((m1, m2), tuple(residues)))
    group = dl.ZLattice(2)

    def check(res, want):
        return _first(_mismatch("cube sup", res.value, want[0]), _mismatch("argmax", res.argmax, want[1]))

    def witness(res):
        return _mismatch("window_mass at argmax", dl.window_mass(nu, group, res.argmax, r), res.value)

    return Case(
        "zd_shift_sup",
        lambda: dl.zd_shift_sup(nu, group, r),
        lambda: ref.cube_sup((m1, m2), residues, r),
        check,
        witness,
    )


def _cover_cases(dl, rng, m, width):
    """greedy_translates, syndetic_check and gap_analysis on one periodic A,
    half of whose residues lie in [0, width)."""
    residues = sorted(rng.sample(range(width), width // 2))
    group = dl.ZLattice(1)
    A = dl.PeriodicDiscrete.line(m, residues)
    greedy = ref.greedy_line(m, residues)
    diffs = ref.difference_residues(m, residues)
    D = dl.PeriodicDiscrete.line(m, diffs)
    K = dl.ExplicitFinite(tuple((b,) for b in greedy))

    def check_greedy(res, want):
        return _mismatch("greedy B", tuple(res.translates), tuple((b,) for b in want))

    def witness_greedy(res):
        cert = dl.syndetic_check(D, dl.ExplicitFinite(tuple(res.translates)), group)
        return None if cert.verified else "syndetic_check rejects the greedy cover"

    def check_syndetic(res, _want):
        if not res.verified:
            return "cover of A - A + B reported as not verified"
        hits = res.covering_witness.items() if isinstance(res.covering_witness, dict) else ()
        dset = set(diffs)
        if len(hits) != m or any((g[0] - k[0]) % m not in dset for g, k in hits):
            return "covering witness map is wrong"
        return None

    def check_gaps(res, want):
        return _first(
            _mismatch("max gap", res.max_gap, want),
            _mismatch("period", res.period, m),
            _mismatch("bounded", res.bounded, True),
        )

    return [
        Case("greedy_translates", lambda: dl.greedy_translates(A, group), lambda: greedy,
             check_greedy, witness_greedy),
        Case("syndetic_check", lambda: dl.syndetic_check(D, K, group), lambda: None, check_syndetic),
        Case("gap_analysis", lambda: dl.gap_analysis(D, group),
             lambda: ref.max_circular_gap(m, diffs), check_gaps),
    ]


def _min_cover_case(dl, rng, moduli):
    """A periodic subset of Z (one modulus: its period) or of a finite group."""
    elements = _elements(moduli)
    subset = rng.sample(elements, max(2, len(elements) // 4))
    if len(moduli) == 1:
        S, group = dl.PeriodicDiscrete(moduli, tuple(subset)), dl.ZLattice(1)
    else:
        S, group = dl.ExplicitFinite(tuple(subset)), dl.FiniteAbelian(moduli)

    def check(res, want):
        return _first(_mismatch("minimum cover", tuple(res.translates), want),
                      _mismatch("exact", res.exact, True))

    return Case("minimal_translates", lambda: dl.minimal_translates(S, group),
                lambda: ref.min_cover(moduli, subset), check)


def _elements(moduli):
    out = [()]
    for m in moduli:
        out = [e + (c,) for e in out for c in range(m)]
    return out


def _oracle_case(dl, rng, moduli):
    group = dl.FiniteAbelian(moduli)
    elements = _elements(moduli)
    atoms = [(e, F(rng.randint(1, 6), rng.choice((1, 2, 3))))
             for e in rng.sample(elements, rng.randint(1, len(elements)))]
    support = rng.sample(elements, rng.randint(0, len(elements)))
    nu = dl.WeightedDiracs(tuple(atoms))
    if support:
        nu = dl.MeasureSum((nu, dl.Counting(dl.ExplicitFinite(tuple(support)))))
    masses: dict = {}
    for e, w in atoms + [(e, F(1)) for e in support]:
        masses[e] = masses.get(e, F(0)) + w
    total = sum(masses.values(), F(0))

    def witness(res):
        value, C, V = res
        return _first(
            _mismatch("nu(V)/#(C+V) of the witness pair",
                      ref.finite_group_ratio(moduli, masses, C.elements, V.elements), value),
            _mismatch("closed form", dl.kahane_density_finite_group(nu, group).value, value),
        )

    return Case("kahane_oracle_finite", lambda: dl.kahane_oracle_finite(nu, group),
                lambda: total / len(elements), lambda res, want: _mismatch("oracle", res[0], want),
                witness)


# the cube scans are the tail; seven of equal cost keep p90 from resting on one op
ZD_SIDES = ((8, 8), (12, 12), (16, 16), (20, 20)) + ((18, 18),) * 7
COVER_PERIODS = (250, 450, 700, 950, 1200, 1450)
MIN_COVER_DOMAINS = ((9,), (3, 4), (13,), (4, 4), (17,), (4, 5))
SMALL_GROUPS = ((), (2,), (3,), (2, 2), (4,), (5,), (2, 3), (6,), (7,))
ORDER_8_GROUPS = ((2, 2, 2), (2, 4), (8,))


def build_discrete(dl, seed: int, smoke: bool = False) -> list[Case]:
    """Fixed sizes; the seed draws every subset and weight. The oracle runs on
    every group of order <= 8, with ten weighted measures on each order-8
    group: thirty ops of equal cost in the middle of the workload's costs."""
    rng = random.Random(f"discrete:{seed}")
    cases = []
    for i, (m1, m2) in enumerate(ZD_SIDES[:2] if smoke else ZD_SIDES):
        cases.append(_zd_case(dl, rng, m1, m2, 2 + i % 4))
    for m in (40, 60) if smoke else COVER_PERIODS:
        cases += _cover_cases(dl, rng, m + rng.randint(-10, 10), 8 if smoke else 48)
    for moduli in MIN_COVER_DOMAINS[:2] if smoke else MIN_COVER_DOMAINS:
        cases.append(_min_cover_case(dl, rng, moduli))
    groups = SMALL_GROUPS[:6] if smoke else SMALL_GROUPS + ORDER_8_GROUPS * 10
    cases += [_oracle_case(dl, rng, moduli) for moduli in groups]
    return cases


# ---------------------------------------------------------------------------
# pipeline: the constructive cover chain


def _periodic_config(rng, count):
    period = F(rng.randint(2, 12), 4)
    residues = sorted(F(k, 12) for k in rng.sample(range(int(period * 12)), count))
    return period, residues


def _pipeline_case(dl, rng, epsilon, count, h_periods):
    """Auto-H when h_periods is None, else H = [0, h_periods * period]."""
    period, residues = _periodic_config(rng, count)
    S = dl.PeriodicPoints(period, tuple(residues))
    H = None
    raw_H = None
    if h_periods is not None:
        raw_H = ((F(0), period * h_periods),)
        H = dl.IntervalUnion(raw_H)
    group = dl.RealLine()

    def check(res, want):
        n, mu_t, L = want
        return _first(
            _mismatch("class count", res.partition.n, n),
            _mismatch("mu(T)", res.mu_T, mu_t),
            None if L is None else _mismatch("auto-H length L", res.auto.L, L),
        )

    def witness(res):
        cert = dl.syndetic_check(dl.difference_set(S, group), res.T, group)
        return None if cert.verified else "syndetic_check rejects (S - S) + T"

    return Case(
        "syndetic_pipeline",
        lambda: dl.syndetic_pipeline(S, group, epsilon=epsilon, H=H),
        lambda: ref.pipeline(period, residues, epsilon, raw_H),
        check,
        witness,
    )


def _partition_case(dl, rng, size, perturbed, n_iv):
    cuts = sorted(F(k, 8) for k in rng.sample(range(1, 17), 2 * n_iv))
    raw_H = tuple(zip(cuts[::2], cuts[1::2]))
    H = dl.IntervalUnion(raw_H)
    if perturbed:
        n_extra = max(2, (size - 5) * 2 // 3)
        span = n_extra // 2 + 1
        extra = rng.sample([F(k, 3) for k in range(3 * span) if k % 3], n_extra)
        removed = [F(k) for k in rng.sample(range(1, span), max(1, span // 10))]
        S = dl.PerturbedLattice(F(1), tuple(extra), tuple(removed))
        points = lambda: ref.materialize_perturbed(F(1), extra, removed)
    else:
        raw = sorted({F(rng.randint(0, 6 * size), 12) for _ in range(size)})
        S = dl.FinitePoints(tuple(raw))
        points = lambda: raw

    def check(res, want):
        n, k = want
        return _first(_mismatch("class count", res.n, n), _mismatch("window bound", res.k_bound, k))

    return Case("partition_by_coloring", lambda: dl.partition_by_coloring(S, H, dl.RealLine()),
                lambda: ref.partition_finite(points(), raw_H), check)


def _packing_case(dl, rng, count):
    period, residues = _periodic_config(rng, count)
    diffs = [(a - b) % period for a in residues for b in residues]
    min_diff = min([d for d in diffs if d > 0] + [period])
    h = min_diff * F(rng.randint(1, 7), 8)
    S = dl.PeriodicPoints(period, tuple(residues))
    H = dl.IntervalUnion.closed(0, h)
    density = F(len(residues)) / period

    def check(res, want):
        return _first(
            _mismatch("mu(H)", res.mu_H, h),
            _mismatch("density", res.density, density),
            _mismatch("slack", res.slack, 1 / density - h),
            _mismatch("checked radius", res.checked_radius, h),
        )

    return Case("packing_bound_check", lambda: dl.packing_bound_check(S, H, dl.RealLine()),
                lambda: None, check)


PIPELINE_VARIANTS = (  # (epsilon, H as a multiple of the period or None, residue counts)
    (F(1, 2), None, (1, 2, 3, 4)),
    (F(1, 2), F(2), (1, 2, 3, 4)),
    (F(1, 4), None, (3, 3, 3, 3)),  # the tail, four runs of equal cost
)


def build_pipeline(dl, seed: int, smoke: bool = False) -> list[Case]:
    """Fixed residue counts, H lengths and configuration sizes; the seed draws
    periods, positions and window sets."""
    rng = random.Random(f"pipeline:{seed}")
    cases = []
    for epsilon, h_periods, counts in PIPELINE_VARIANTS[:2] if smoke else PIPELINE_VARIANTS:
        cases += [_pipeline_case(dl, rng, epsilon, c, h_periods) for c in counts[:2 if smoke else 4]]
    slots = 2 if smoke else 12
    for i in range(slots):
        size = (20 if smoke else 80) + 40 * i // slots + rng.randint(0, 2)
        cases.append(_partition_case(dl, rng, size, perturbed=i % 2 == 1, n_iv=1 + i // 2 % 2))
    cases += [_packing_case(dl, rng, c) for c in range(1, 3 if smoke else 5)]
    return cases


# ---------------------------------------------------------------------------
# cli-instances: in-process CLI runs on the instance files

I = "instances/"
# (argv, dotted path into the report's "results", expected value); None = exit code only
CLI_RUNS = [
    (["density", "--instance", I + "chain_half.json", "--notion", "hegyvari"], "value", "1/2"),
    (["density", "--instance", I + "chain_half.json", "--notion", "hegyvari", "--nmax", "3"],
     "value", "1/2"),
    (["cover", "--instance", I + "chain_half.json"], "size_bound", 2),
    (["density", "--instance", I + "dirac.json", "--notion", "window"], "value", "0"),
    (["density", "--instance", I + "dirac.json", "--notion", "kahane"], "value", "0"),
    (["density", "--instance", I + "dirac.json", "--notion", "delta"], "method", "certified-lower-bound"),
    (["density", "--instance", I + "half_pattern.json", "--notion", "window"], "value", "1/2"),
    (["density", "--instance", I + "half_pattern.json", "--notion", "kahane"], "value", "1/2"),
    (["density", "--instance", I + "half_pattern.json", "--notion", "delta"], "value", "1/2"),
    (["density", "--instance", I + "half_pattern.json", "--notion", "window",
      "--K", '[["0","1/2"],["3/4","5/4"]]'], "value", "1/2"),
    (["density", "--instance", I + "perturbed_lattice.json", "--notion", "window"], None, None),
    (["density", "--instance", I + "perturbed_lattice.json", "--notion", "kahane"], None, None),
    (["density", "--instance", I + "perturbed_lattice.json", "--notion", "window", "--rmax", "40"],
     None, None),
    (["density", "--instance", I + "perturbed_lattice.json", "--notion", "delta"],
     "method", "certified-lower-bound"),
    (["diffset", "--instance", I + "accumulation.json"], "type", "FinitePoints"),
    (["diffset", "--instance", I + "reciprocal_perturbation.json", "--object", "S"],
     "type", "FinitePoints"),
    (["partition", "--instance", I + "reciprocal_perturbation.json", "--object", "S", "--H", "H"],
     None, None),
    (["density", "--instance", I + "three_z.json", "--object", "nu", "--notion", "classical"],
     "value", "1/3"),
    (["density", "--instance", I + "three_z.json", "--object", "nu", "--notion", "window"],
     "value", "1/3"),
    (["density", "--instance", I + "three_z.json", "--object", "nu", "--notion", "kahane"],
     "value", "1/3"),
    (["density", "--instance", I + "three_z.json", "--object", "nu", "--notion", "delta"],
     "value", "1/3"),
    (["diffset", "--instance", I + "three_z.json", "--object", "A"], "residues", [[0]]),
    (["cover", "--instance", I + "three_z.json", "--object", "A"], "translates", [[0], [1], [2]]),
    (["diffset", "--instance", I + "two_residues.json", "--object", "S"],
     "residues", ["0", "1/3", "2/3"]),
    (["partition", "--instance", I + "two_residues.json", "--object", "S", "--H", "H"], "n", 2),
    (["pipeline", "--instance", I + "two_residues.json", "--object", "S"], None, None),
    (["pipeline", "--instance", I + "two_residues.json", "--object", "S", "--H", "H"], None, None),
    (["pipeline", "--instance", I + "two_residues.json", "--object", "S", "--epsilon", "1/4"],
     None, None),
    (["density", "--instance", I + "z6_pair.json", "--notion", "kahane"], "value", "1/3"),
    (["density", "--instance", I + "z6_pair.json", "--notion", "kahane", "--mode", "oracle"],
     "value", "1/3"),
    (["density", "--instance", I + "z6_pair.json", "--notion", "delta"], "value", "1/3"),
    (["density", "--instance", I + "z6_pair.json", "--notion", "delta", "--mode", "oracle"],
     "value", "1/3"),
    (["demo", "totik"], None, None),
    # distinct differences 1/a - 1/b, a, b <= 100, all of them in [-1, 1]
    (["demo", "accumulation"], "pairs.0", ["difference_points_within_1", 9215]),
    (["demo", "erdos-sarkozy"], None, None),
    (["demo", "hegyvari"], None, None),
    (["demo", "theorem3"], None, None),
    (["selftest", "--cap", "6"], "pairs", [["failures", 0], ["groups", 8], ["subsets", 206]]),
]


def _dig(report, path):
    node = report["results"]
    for key in path.split("."):
        node = node[int(key) if isinstance(node, list) else key]
    return node


def build_cli_instances(dl, seed: int, smoke: bool, out_dir: str) -> list[Case]:
    """One in-process cli.main run per (subcommand, instance file), every demo
    and selftest --cap 6, each writing --out into out_dir. The inputs are the
    instance files; the seed only sets the order of the runs."""
    cli = dl.cli
    for name in sorted(os.listdir("instances")):
        with open(os.path.join("instances", name), encoding="utf-8") as f:
            dl.parse_instance(f.read())
    cases = []
    for i, (argv, path, value) in enumerate(CLI_RUNS):
        if smoke and i % 6:
            continue
        out = os.path.join(out_dir, f"report-{i}.json")
        full = argv + ["--out", out]

        def check(code, _want, out=out, path=path, value=value):
            if code != 0:
                return f"exit code {code}"
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
            missing = {"command", "input_digest", "library_version", "results"} - set(report)
            if missing:
                return f"report lacks {sorted(missing)}"
            if path is not None:
                return _mismatch(path, _dig(report, path), value)
            return None

        cases.append(Case("cli." + argv[0], lambda full=full: cli.main(full), lambda: None, check))
    return cases


# workload -> the op groups it runs. Each pairs a group that exercises one
# planned kernel change with one that bypasses it: the line sweep moves
# line-scan and not discrete; the summed-area table and bitmask greedy move
# discrete and not line-scan; IntervalUnion changes that help translate at the
# cost of contains/union show as line-scan against pipeline; serialization
# moves cli-instances only.
WORKLOADS = {
    "line-cli": ("line-scan", "cli-instances"),
    "discrete-pipeline": ("discrete", "pipeline"),
}
GROUPS = {
    "line-scan": build_line_scan,
    "discrete": build_discrete,
    "pipeline": build_pipeline,
}


def build(dl, workload: str, seed: int, smoke: bool, out_dir: str) -> list[Case]:
    """Every op of the workload's groups, in a seeded order."""
    cases = []
    for group in WORKLOADS[workload]:
        if group == "cli-instances":
            cases += build_cli_instances(dl, seed, smoke, out_dir)
        else:
            cases += GROUPS[group](dl, seed, smoke)
    random.Random(f"{workload}:{seed}").shuffle(cases)
    return cases

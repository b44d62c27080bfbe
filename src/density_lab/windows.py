"""Exact window-mass evaluation and shift suprema.

measure_layers is the one walker over a measure tree, for the real line, Z^d
and finite abelian groups alike. It decomposes nu into layers: weighted atoms
(AtomLayer; finite, or periodic with a Fraction period on the line and an
integer tuple period on Z^d) and, on the line, Haar traces (TraceLayer; finite
interval unions or periodic patterns), plus the accumulation markers of line
configurations. Every Dirac point, ExplicitFinite element and lattice residue
goes through group.check there (line configurations hold Fractions by
construction), so every layer's atoms belong to the group.

For a bounded closed window W on the line, the shift function
f(x) = nu(x + W) is upper semicontinuous and piecewise linear, with
breakpoints only where a window endpoint crosses an atom or a trace endpoint.
Hence sup_x f is attained at one of finitely many event points:

  x = s - w   for s an atom position or trace endpoint, w a window endpoint,

reduced into one period when every layer is periodic. Evaluating f exactly at
a superset of the event points is therefore sound: no candidate can exceed the
supremum, and the supremum is attained at a true event point. Perturbed
lattices mix periodic and finite layers; there the candidates are the events
inside the perturbation zone plus one clean far-field period.

The line scan runs in integer arithmetic. Every atom position, trace endpoint,
period and window endpoint is multiplied by D, the lcm of their denominators,
and every atom weight by Dw, the lcm of the weight denominators; masses are
then ints in units of 1/(D * Dw). f is evaluated at all candidates by one
event sweep (the sweep-line method of Shamos and Hoey, 1976): each atom
entering or leaving the window and each slope change of a trace is a step,
bucketed onto the candidates by one bisect and summed in one pass. The steps
below the first candidate land on it and so give its value and slope; those
of a periodic layer, infinitely many, are summed there in closed form from one
divmod per step. Multiplying by the positive constants D and D * Dw keeps the
order of candidates and of values, and the first maximum and the first value
reaching a threshold are taken in increasing candidate order, so the value,
the least argmax and the candidate count are those of the exact rational scan.
real_mass keeps the Fraction evaluation as the independent reference.

Counting measures of configurations with an accumulation marker have infinite
mass on any window containing a one-sided neighborhood of the marked point;
such results are returned as a certified Infinite.

On Z^d a fully periodic measure is invariant under its combined period
lattice P (the coordinatewise lcm of the layer periods), so the cube mass
x -> nu(x + [-r, r]^d) is a function on the torus prod Z_{P_i}, and its sup
is a max over that torus. zd_shift_sup computes every value at once: each
layer's residues are lifted to residues mod P on one int grid (weights times
Dw, the lcm of their denominators), and the cube sum, being a product of
intervals, is taken one axis at a time. Along an axis of period m the window
of 2r+1 consecutive integers covers floor((2r+1)/m) whole periods plus an arc
of (2r+1) mod m cells, so each line is replaced by its circular window sums:
that many line totals plus one prefix-sum difference. This is O(d * |P|) int
operations, exact, and the first maximum of the row-major grid is the least
lexicographic maximizer, as in a scan of product(range(P_i)) with a strict
comparison. The cube scan and the translation witness (a window of offsets)
share one int kernel, _zd_values, which scales the weights, merges the finite
atoms, picks the candidates and checks the caps once. A window kind brings
only its torus table (the cube sums above, or the sum of the offsets'
translates of the weight grid) and its finite part: the atoms inside every
cube of a candidate grid, one box per atom summed by prefix sums, or each
atom scattered onto its shifts p - w. _zd_mass_at stays the Fraction
reference for single windows (zd_mass). Every Z^d enumeration and the line
scan's periodic replicas are counted against Caps.enumeration before
anything is allocated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import ceil, floor, lcm, prod
from operator import sub
from typing import Optional, Union

from .config import check_enumeration
from .errors import PreconditionError
from .groups import FiniteAbelian, GroupSpec, RealLine, ZLattice
from .intervals import IntervalUnion, PeriodicPattern
from .rational import Infinite, common_scale, rat
from .sets import (
    AccumulationPoint,
    Counting,
    DiracAtZero,
    ExplicitFinite,
    FinitePoints,
    HaarTrace,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPoints,
    PerturbedLattice,
    WeightedDiracs,
)

# ---------------------------------------------------------------------------
# layer decomposition


@dataclass(frozen=True)
class AtomLayer:
    period: Union[None, Fraction, tuple[int, ...]]  # None for a finite layer
    atoms: tuple[tuple[object, Fraction], ...]  # (position or residue, weight)


@dataclass(frozen=True)
class TraceLayer:
    period: Optional[Fraction]
    periodic: Optional[PeriodicPattern] = None
    finite: Optional[IntervalUnion] = None


Layer = Union[AtomLayer, TraceLayer]


def measure_layers(nu, group: GroupSpec) -> tuple[list[Layer], tuple[AccumulationPoint, ...]]:
    """The nonempty layers of nu on the line, Z^d or a finite group, plus the
    accumulation markers of its counting measures (only line configurations
    carry them). Atoms are checked against the group."""
    layers: list[Layer] = []
    acc: list[AccumulationPoint] = []
    _collect(nu, group, layers, acc)
    return layers, tuple(acc)


def _collect(nu, group, layers, acc):
    def add(period, points, weight=Fraction(1)):
        if points:
            layers.append(AtomLayer(period, tuple((p, weight) for p in points)))

    if isinstance(nu, MeasureSum):
        for c in nu.components:
            _collect(c, group, layers, acc)
        return
    if isinstance(nu, DiracAtZero):
        add(None, (group.zero(),))
        return
    if isinstance(nu, WeightedDiracs):
        if nu.atoms:
            layers.append(AtomLayer(None, tuple((group.check(p), w) for p, w in nu.atoms)))
        return
    if not isinstance(nu, (Counting, HaarTrace)):
        raise PreconditionError(f"unsupported measure: {type(nu).__name__}")
    s = nu.of
    line = isinstance(group, RealLine)
    trace = line and isinstance(nu, HaarTrace)  # Lebesgue measure restricted to s
    count = line and isinstance(nu, Counting)
    if trace and isinstance(s, (FinitePoints, PeriodicPoints, ExplicitFinite)):
        pass  # Lebesgue-null support, the zero measure
    elif trace and isinstance(s, IntervalUnion):
        if not s.is_empty:
            layers.append(TraceLayer(None, finite=s))
    elif trace and isinstance(s, PeriodicPattern):
        if not s.pattern.is_empty:
            layers.append(TraceLayer(s.period, periodic=s))
    elif isinstance(s, ExplicitFinite):
        add(None, [group.check(e) for e in s.elements])
    elif count and isinstance(s, FinitePoints):
        add(None, s.points)
        acc.extend(s.accumulation)
    elif count and isinstance(s, PeriodicPoints):
        add(s.period, s.residues)
    elif count and isinstance(s, PerturbedLattice):
        add(s.step, (Fraction(0),))
        add(None, s.extra)
        add(None, s.removed, Fraction(-1))
        acc.extend(s.accumulation)
    elif isinstance(group, ZLattice) and isinstance(s, PeriodicDiscrete):
        add(s.period, [group.check(r) for r in s.residues])
    else:
        raise PreconditionError(
            f"{type(nu).__name__} of {type(s).__name__} is not a measure on {type(group).__name__}"
        )


def _finite_atom_index(layer: AtomLayer):
    """Sorted positions with prefix weight sums, for O(log n) interval mass."""
    atoms = sorted(layer.atoms)
    positions = [p for p, _ in atoms]
    prefix = [Fraction(0)]
    for _, w in atoms:
        prefix.append(prefix[-1] + w)
    return positions, prefix


def _layer_mass(layer: Layer, window: IntervalUnion) -> Fraction:
    total = Fraction(0)
    if isinstance(layer, AtomLayer):
        if layer.period is None:
            positions, prefix = _finite_atom_index(layer)
            for a, b in window.intervals:
                lo = bisect_left(positions, a)
                hi = bisect_right(positions, b)
                total += prefix[hi] - prefix[lo]
        else:
            period = layer.period
            for a, b in window.intervals:
                for res, w in layer.atoms:
                    k_lo = ceil((a - res) / period)
                    k_hi = floor((b - res) / period)
                    if k_hi >= k_lo:
                        total += w * (k_hi - k_lo + 1)
        return total
    if layer.period is None:
        return layer.finite.intersect(window).length
    for a, b in window.intervals:
        total += layer.periodic.mass_on(a, b)
    return total


def _accumulation_hit(acc, window: IntervalUnion):
    for ap in acc:
        for a, b in window.intervals:
            if b <= a:
                continue
            above = a <= ap.point < b
            below = a < ap.point <= b
            if (
                (ap.side == "above" and above)
                or (ap.side == "below" and below)
                or (ap.side == "both" and (above or below))
            ):
                return ap
    return None


def real_mass(nu, window: IntervalUnion):
    """Exact nu(window); certified Infinite when the window traps an
    accumulation marker on its accumulating side.

    This Fraction evaluation shares no code with the integer kernel of the
    shift scans below, so re-evaluating a scan's argmax here checks it."""
    layers, acc = measure_layers(nu, RealLine())
    hit = _accumulation_hit(acc, window)
    if hit is not None:
        return Infinite(("accumulation", hit, window))
    return sum((_layer_mass(l, window) for l in layers), Fraction(0))


def _trace_union(layer: TraceLayer) -> IntervalUnion:
    return layer.finite if layer.period is None else layer.periodic.pattern


def _base_positions(layer: Layer) -> list[Fraction]:
    if isinstance(layer, AtomLayer):
        return [p for p, _ in layer.atoms]
    return _trace_union(layer).endpoints()


@dataclass(frozen=True)
class ShiftScan:
    value: object  # Fraction or Infinite
    argmax: Optional[Fraction]
    candidates: int


# ---------------------------------------------------------------------------
# integer line-scan kernel


@dataclass(frozen=True)
class _IntLayer:
    """A layer scaled to ints: its period, event positions (_base_positions)
    and sweep steps, which change the slope of x -> mass for a trace and its
    value for an atom layer."""

    period: Optional[int]
    bases: list[int]
    trace: bool
    steps: list[tuple[int, int, bool]]  # (position, change, offset by b rather than a)


def _scaled_layer(layer: Layer, period: Optional[int], bases: list[int], weights, D: int, Dw: int):
    """The _IntLayer of a layer whose period and _base_positions, scaled by D,
    are period and bases; an atom layer draws its weights, scaled by Dw, from
    the iterator weights. Masses are ints in units of 1/(D * Dw).

    Sweep steps, for a window piece [a, b]: an atom of weight w at p adds w at
    the first x >= p - b, i.e. the first x > p - b - 1, and removes it at the
    first x > p - a; a trace piece [s, e] changes the slope of x -> mass by
    +unit at s - b and e - a and by -unit at e - b and s - a. All steps of one
    atom or one trace piece come from its own base position, unreduced by the
    period, so for each window piece the changes of an atom's steps sum to 0,
    and those of a trace piece's steps sum to 0 also when multiplied by their
    positions. The periodic seed of _sweep_run holds only while this does."""
    if isinstance(layer, AtomLayer):
        atoms = [(p, next(weights) * D) for p in bases]
        steps = [step for p, w in atoms for step in ((p - 1, w, True), (p, -w, False))]
        return _IntLayer(period, bases, False, steps)
    steps = [
        step
        for s, e in zip(bases[::2], bases[1::2])
        for step in ((s, Dw, True), (e, -Dw, True), (s, -Dw, False), (e, Dw, False))
    ]
    return _IntLayer(period, bases, True, steps)


def _line_candidates(int_layers: list[_IntLayer], ws: list[int]) -> list[int]:
    """Sorted finite superset of the event points of x -> nu(x + W), scaled."""
    periodic = [(l.period, l.bases) for l in int_layers if l.period is not None]
    finite = [l.bases for l in int_layers if l.period is None]
    cands = {0}
    for bases in finite:
        cands.update(base - w for base in bases for w in ws)
    if not (periodic and ws):  # an empty window has mass 0 at every shift
        return sorted(cands)
    big = lcm(*(period for period, _ in periodic))
    if finite:  # mixed: event points inside the perturbation zone plus one clean period
        support = [p for bases in finite for p in bases]
        zone_lo = min(support) - max(ws) - big
        zone_hi = max(support) - min(ws) + big
    span = big + (zone_hi + 1 - zone_lo if finite else 0)  # no run below spans more than this
    replicas = sum(len(bases) * len(ws) * (span // period + 1) for period, bases in periodic)
    check_enumeration(
        replicas, "the line scan: {count} periodic replicas exceed the enumeration cap {cap}"
    )
    if not finite:
        for period, bases in periodic:
            for base in bases:
                for w in ws:
                    e = (base - w) % period
                    cands.update(range(e, e + big, period))
        return sorted(cands)
    for period, bases in periodic:
        for base in bases:
            for w in ws:
                e = base - w
                cands.update(range(e - (e - zone_lo) // period * period, zone_hi + 1, period))
                # one clean far-field period, unaffected by the perturbation
                far = zone_hi + (e - zone_hi) % big
                cands.update(range(far, far + big, period))
    return sorted(cands)


def _sweep(cands: list[int], pieces: list[tuple[int, int]], int_layers: list[_IntLayer]):
    """x -> nu(x + window) at every candidate x, in units of 1/(D * Dw).

    A mixed scan's candidates are the perturbation zone, one far period and
    0, which can lie far outside both. Where two candidates are more than the
    common period P apart, the sweep starts a new run, so that no periodic
    layer's replicas are enumerated across a long gap: inside a run they are
    about as many as the candidates that layer gives, plus one P per gap. A
    fully periodic scan's candidates lie in [0, P), and a finite one has no
    replicas, so both are one run."""
    periods = [l.period for l in int_layers if l.period is not None]
    if len(periods) in (0, len(int_layers)):
        return _sweep_run(cands, pieces, int_layers)
    big = lcm(*periods)
    cuts = [i for i, (p, c) in enumerate(zip(cands, cands[1:]), 1) if c - p > big]
    values = []
    for s, t in zip([0, *cuts], [*cuts, len(cands)]):
        values += _sweep_run(cands[s:t], pieces, int_layers)
    return values


def _sweep_run(cands: list[int], pieces: list[tuple[int, int]], int_layers: list[_IntLayer]):
    """The values at sorted candidates as one running sum.

    Each step of a layer below the last candidate is bucketed by one bisect:
    an atom's change d at y goes to the value from the first candidate above y
    on; a trace's slope change d at y goes to the slope from the first
    candidate c above y on, plus d * (c - y) to the value at c. The steps need
    not be candidates: the ones in a gap between two candidates land on the
    candidate after it, and the ones below the first candidate c0 on c0, which
    seeds the run with its value and slope there.

    A periodic step repeats at y + kP for every k. With y - c0 = qP + r, the
    first replica at or after c0 is c0 + r, and the n = -q replicas y, ...,
    y + (n - 1)P lie below c0: they add d * n to an atom's value at c0, and
    d * n to a trace's slope and d * (n * (c0 - y) - P * n * (n - 1) / 2) to
    its value there. The replicas further left cancel, and n may be negative,
    because the steps of each atom and of each trace piece come from one base
    position (_scaled_layer): the atom's changes sum to 0, and so do the
    piece's changes and their changes times positions."""
    lo, hi = cands[0], cands[-1]
    jumps = [0] * len(cands)  # value changes, bucketed
    bends = [0] * len(cands)  # slope changes, bucketed
    for l in int_layers:
        trace, period = l.trace, l.period
        for a, b in pieces:
            for p, d, right in l.steps:
                y = p - (b if right else a)
                if period is None:
                    ys = (y,) if y < hi else ()
                else:
                    q, r = divmod(y - lo, period)
                    n = -q  # the replicas below lo, counted from y
                    if trace:
                        bends[0] += d * n
                        jumps[0] += d * (n * (lo - y) - period * n * (n - 1) // 2)
                    else:
                        jumps[0] += d * n
                    ys = range(lo + r, hi, period)
                if trace:
                    for y in ys:
                        i = bisect_right(cands, y)
                        bends[i] += d
                        jumps[i] += d * (cands[i] - y)
                else:
                    for y in ys:
                        jumps[bisect_right(cands, y)] += d
    if not any(bends):  # no slope anywhere
        return list(accumulate(jumps))
    # value(c_i) = value(c_{i-1}) + slope right of c_{i-1} * (c_i - c_{i-1}) + jumps[i]
    slopes = accumulate(bends, initial=0)  # the i-th is the slope right of c_{i-1}
    return list(
        accumulate(s * (c - p) + j for s, p, c, j in zip(slopes, [lo, *cands], cands, jumps))
    )


def _scaled_scan(layers, window: IntervalUnion):
    """(D, Dw, window pieces, _IntLayers, candidates) of a line scan, in ints:
    positions, periods and window endpoints times D, weights times Dw."""
    ws = window.endpoints()
    bases = [_base_positions(l) for l in layers]
    periods = [l.period for l in layers if l.period is not None]
    D, ints = common_scale([*ws, *periods, *(q for b in bases for q in b)])
    Dw, weights = common_scale(w for l in layers if isinstance(l, AtomLayer) for _, w in l.atoms)
    weights = iter(weights)
    at = len(ws) + len(periods)
    ends, scaled_periods = ints[: len(ws)], iter(ints[len(ws) : at])
    int_layers = []
    for layer, b in zip(layers, bases):
        period = None if layer.period is None else next(scaled_periods)
        int_layers.append(_scaled_layer(layer, period, ints[at : at + len(b)], weights, D, Dw))
        at += len(b)
    pieces = list(zip(ends[::2], ends[1::2]))
    return D, Dw, pieces, int_layers, _line_candidates(int_layers, ends)


def _line_values(layers, window: IntervalUnion):
    """(D, Dw, candidates, values): x -> nu(x + window) at every candidate, in
    increasing order; candidates in units of 1/D, values of 1/(D * Dw)."""
    D, Dw, pieces, int_layers, cands = _scaled_scan(layers, window)
    return D, Dw, cands, _sweep(cands, pieces, int_layers)


def _line_scan(nu, window: IntervalUnion, threshold: Optional[Fraction] = None):
    """The least candidate reaching threshold (None if none does or no
    threshold is given) and the ShiftScan with the least maximizer.

    When nu has an accumulation marker and the window a piece of positive
    length, the candidate is a shift at which that piece traps the marker on
    its accumulating side, and the scan's value there is Infinite."""
    layers, acc = measure_layers(nu, RealLine())
    piece = next(((a, b) for a, b in window.intervals if b > a), None)
    if acc and piece:
        ap = acc[0]
        x = ap.point - (piece[1] if ap.side == "below" else piece[0])
        return x, ShiftScan(Infinite(("accumulation", ap, window.translate(x))), x, 0)
    D, Dw, cands, values = _line_values(layers, window)
    best = max(values)
    scan = ShiftScan(Fraction(best, D * Dw), Fraction(cands[values.index(best)], D), len(cands))
    if threshold is None:
        return None, scan
    limit = ceil(threshold * D * Dw)
    return next((Fraction(x, D) for x, v in zip(cands, values) if v >= limit), None), scan


def real_shift_sup(nu, window: IntervalUnion) -> ShiftScan:
    """sup over x of nu(x + window), with the least maximizing event point."""
    return _line_scan(nu, window)[1]


def real_threshold_witness(nu, window: IntervalUnion, threshold: Fraction):
    """Least event point x with nu(x + window) >= threshold, else None plus scan data."""
    return _line_scan(nu, window, threshold)

# ---------------------------------------------------------------------------
# discrete (Z^d) engine


def _zd_mass_at(layers, x: tuple[int, ...], r: int) -> Fraction:
    total = Fraction(0)
    for layer in layers:
        if layer.period is None:
            for p, w in layer.atoms:
                if all(abs(c - xc) <= r for c, xc in zip(p, x)):
                    total += w
        else:
            for res, w in layer.atoms:
                count = 1
                for xc, rc, m in zip(x, res, layer.period):
                    k_lo = ceil(Fraction(xc - r - rc, m))
                    k_hi = floor(Fraction(xc + r - rc, m))
                    count *= max(0, k_hi - k_lo + 1)
                total += w * count
    return total


CENTERS_OVER_CAP = "{count} cube centers exceed the enumeration cap {cap}"


def zd_mass(nu, group: ZLattice, x, r: int) -> Fraction:
    """nu over the cube of side 2r+1 centered at x."""
    x = group.check(x)
    return _zd_mass_at(measure_layers(nu, group)[0], x, r)


def _axis_pass(grid: list[int], shape: tuple[int, ...], ops) -> list[int]:
    """Replace, one axis i at a time, every line along axis i of the
    row-major grid of the given shape by ops[i](line); in place."""
    for n, s, op in zip(shape, FiniteAbelian(shape).strides, ops):
        block = n * s
        for outer in range(0, len(grid), block):
            for start in range(outer, outer + s):
                grid[start : start + block : s] = op(grid[start : start + block : s])
    return grid


def _circular_window_sums(line: list[int], wraps: int, rem: int, off: int) -> list[int]:
    """[wraps * sum(line) + line[x+off] + ... + line[x+off+rem-1]] for every x,
    indices mod len(line): the sums over the circular windows [x - r, x + r]."""
    m = len(line)
    base = wraps * sum(line)
    if not rem:
        return [base] * m
    pre = list(accumulate(line * 3, initial=0))  # off + x + rem < 3m
    return [base + b - a for a, b in zip(pre[off : off + m], pre[off + rem : off + rem + m])]


def _torus_weights(periodic: list[AtomLayer], period: tuple[int, ...], weights) -> list[int]:
    """The weight of every cell of the torus prod Z_{P_i}, in row-major order:
    each layer's residues lifted to residues mod P, with weights, the layers'
    atom weights scaled to ints, in order."""
    strides = FiniteAbelian(period).strides
    grid = [0] * prod(period)
    residues = ((l.period, res) for l in periodic for res, _ in l.atoms)
    for (layer_period, res), w in zip(residues, weights):
        lifts = [
            range((c % m) * s, P * s, m * s)
            for c, m, P, s in zip(res, layer_period, period, strides)
        ]
        for cell in product(*lifts):
            grid[sum(cell)] += w
    return grid


def _torus_cube_masses(grid: list[int], period: tuple[int, ...], r: int) -> list[int]:
    """The cube mass at every center of the torus prod Z_{P_i}, in row-major
    order, from the weight of every cell (_torus_weights); in place."""
    L = max(0, 2 * r + 1)
    ops = [partial(_circular_window_sums, wraps=L // P, rem=L % P, off=-r % P) for P in period]
    return _axis_pass(grid, period, ops)


def _cube_counts(atoms: dict, axes: list, r: int) -> list[int]:
    """The weight of the atoms inside the cube [x - r, x + r]^d at every x of
    the grid prod axes (sorted coordinates), in row-major order: each atom's
    weight goes with inclusion-exclusion signs on the corners of the box of
    centers whose cube holds it, and prefix sums along every axis fill it."""
    shape = tuple(map(len, axes))
    strides = FiniteAbelian(shape).strides
    grid = [0] * prod(shape)
    for p, w in atoms.items():
        spans = [(bisect_left(a, c - r), bisect_right(a, c + r)) for a, c in zip(axes, p)]
        if all(lo < hi for lo, hi in spans):
            for corner in product(*(((lo, 1), (hi, -1)) for lo, hi in spans)):
                if all(i < n for (i, _), n in zip(corner, shape)):
                    at = sum(i * s for (i, _), s in zip(corner, strides))
                    grid[at] += w * prod(sign for _, sign in corner)
    return _axis_pass(grid, shape, [lambda line: list(accumulate(line))] * len(shape))


def _zd_values(nu, group: ZLattice, window):
    """(Dw, values, at): x -> nu(window + x) at every candidate x, in scan
    order and in units of 1/Dw, and at(i), the i-th candidate. The window
    is a cube radius r, meaning the offsets [-r, r]^d, or a list of offsets.

    The candidates: the period torus in row-major order when every layer is
    periodic; the perturbation zone plus one clean period when periodic and
    finite layers mix (on Z only); else the grid of the coordinates p_i - r
    of the atoms p and 0 for a cube, or the sorted shifts p - w of the atoms
    by the offsets (the origin alone when there are none)."""
    layers, _ = measure_layers(nu, group)
    cube = isinstance(window, int)
    if not cube:
        window = [group.check(w) for w in window]
    periodic = [l for l in layers if l.period is not None]
    finite = [a for l in layers if l.period is None for a in l.atoms]
    Dw, weights = common_scale([w for l in periodic for _, w in l.atoms] + [w for _, w in finite])
    atoms: dict[tuple[int, ...], int] = {}
    for (p, _), w in zip(finite, weights[len(weights) - len(finite) :]):
        atoms[p] = atoms.get(p, 0) + w
    if periodic:
        period = tuple(lcm(*ms) for ms in zip(*(l.period for l in periodic)))
        if not atoms:
            check_enumeration(prod(period), "the period torus: " + CENTERS_OVER_CAP)
            axes = [range(m) for m in period]
        elif group.dimension != 1:
            raise PreconditionError("mixed periodic and finite lattice layers need d = 1")
        else:
            (P,) = period
            offsets = (-window, window) if cube else sorted(w for (w,) in window) or [0]
            lo = min(atoms)[0] - offsets[-1] - P
            end = max(atoms)[0] - offsets[0] + 2 * P + 1
            check_enumeration(end - lo, "the perturbation zone: " + CENTERS_OVER_CAP)
            axes = [range(lo, end)]
        table = _torus_weights(periodic, period, weights)
        if cube:
            table = _torus_cube_masses(table, period, window)
        else:  # the sum of the offsets' translates of the weight grid
            torus, grid = FiniteAbelian(period), table
            table = [0] * len(grid)
            for w in window:
                table = [v + grid[i] for v, i in zip(table, torus.translate(w))]
        values = [table[x % P] for x in axes[0]] if atoms else table
    if cube:
        if not periodic:
            axes = [sorted({p[i] - window for p in atoms} | {0}) for i in range(group.dimension)]
            check_enumeration(
                prod(map(len, axes)), "the support's bounding grid: " + CENTERS_OVER_CAP
            )
            values = _cube_counts(atoms, axes, window)
        elif atoms:
            values = [v + c for v, c in zip(values, _cube_counts(atoms, axes, window))]
    else:
        shifts: dict[tuple[int, ...], int] = {}
        for p, v in atoms.items():
            for w in window:
                x = tuple(map(sub, p, w))
                shifts[x] = shifts.get(x, 0) + v
        if not periodic:
            cands = sorted(shifts) or [group.zero()]
            return Dw, [shifts.get(x, 0) for x in cands], cands.__getitem__
        for (x,), v in shifts.items():
            values[x - lo] += v
    cells = FiniteAbelian(tuple(map(len, axes)))
    return Dw, values, lambda i: tuple(a[k] for a, k in zip(axes, cells.element(i)))


def _zd_scan(nu, group: ZLattice, window, threshold: Optional[Fraction] = None):
    """The least candidate reaching threshold (None if none does or no
    threshold is given) and the ShiftScan with the least maximizer."""
    Dw, values, at = _zd_values(nu, group, window)
    best = max(values)
    scan = ShiftScan(Fraction(best, Dw), at(values.index(best)), len(values))
    if threshold is None:
        return None, scan
    limit = ceil(threshold * Dw)
    return next((at(i) for i, v in enumerate(values) if v >= limit), None), scan


def zd_shift_sup(nu, group: ZLattice, r: int) -> ShiftScan:
    """sup over integer centers x of the cube mass, least maximizer first.

    Raises CapExceededError when the centers to scan exceed Caps.enumeration."""
    return _zd_scan(nu, group, r)[1]


def zd_threshold_witness(nu, group: ZLattice, window: ExplicitFinite, threshold: Fraction):
    """Least candidate x with nu(window + x) >= threshold (None if none does),
    and the ShiftScan of x -> nu(window + x) over the candidates of _zd_values."""
    return _zd_scan(nu, group, window.elements, threshold)


# ---------------------------------------------------------------------------
# shared dispatch helpers


def window_mass(nu, group: GroupSpec, x, window):
    """Exact nu(x + window).

    On the real line `window` is an IntervalUnion (or a rational radius r,
    meaning [x-r, x+r]); on Z^d it is an integer radius r, meaning the cube of
    side 2r+1 around x.
    """
    if isinstance(group, RealLine):
        if not isinstance(window, IntervalUnion):
            radius = rat(window)
            if radius < 0:
                raise PreconditionError("window radius must be nonnegative")
            window = IntervalUnion.closed(-radius, radius)
        return real_mass(nu, window.translate(rat(x)))
    if isinstance(group, ZLattice):
        if isinstance(window, int):
            return zd_mass(nu, group, x, window)
        raise PreconditionError("lattice windows are integer cube radii")
    raise PreconditionError(f"window_mass unsupported on {type(group).__name__}")

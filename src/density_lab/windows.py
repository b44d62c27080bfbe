"""Exact window-mass evaluation and shift suprema.

measure_layers is the one walker over a measure tree, for the real line, Z^d
and finite abelian groups alike. It decomposes nu into layers: weighted atoms
(AtomLayer; finite, or periodic with a Fraction period on the line and an
integer tuple period on Z^d), the counting atoms of line configurations
(PointLayer, in the integer normal form they hold) and, on the line, Haar
traces (TraceLayer; finite interval unions or periodic patterns), plus the
accumulation markers of line configurations. The Dirac points,
ExplicitFinite elements and lattice residues of each object go through
group.check_points there (line configurations are rational by
construction), so every layer's atoms belong to the group.

For a bounded closed window W on the line, the shift function
f(x) = nu(x + W) is upper semicontinuous and piecewise linear, with
breakpoints only where a window endpoint crosses an atom or a trace endpoint.
Hence sup_x f is attained at one of finitely many event points:

  x = s - w   for s an atom position or trace endpoint, w a window endpoint,

reduced into one period when every layer is periodic. Evaluating f exactly at
a superset of the event points is therefore sound: no candidate can exceed the
supremum, and the supremum is attained at a true event point. Perturbed
lattices mix periodic and finite layers. There f is the periodic part plus a
finite part that is constant between consecutive finite events, so f repeats
with the common period P inside each such gap, and the candidates are the
finite events plus the periodic events of one period after each of them (and
of one before the first): the same supremum, least maximizer and least
threshold witness, whatever the window's size. A finite trace is linear
between its events, so with one the whole perturbation zone is scanned.

The line scan runs in integer arithmetic. Every atom position, trace endpoint,
period and window endpoint is multiplied by D, the lcm of their denominators,
and every atom weight by Dw, the lcm of the weight denominators; masses are
then ints in units of 1/(D * Dw). A PointLayer brings its ints over the D of
its configuration, which divides D: they are multiplied by the quotient only
when it is not 1, and its weight is an int. f is evaluated at all candidates
by one event sweep (the sweep-line method of Shamos and Hoey, 1976): each atom
entering or leaving the window and each slope change of a trace is a step,
held in one list per side, offset by a window piece's right or left end. A
step inside a span of candidates lies on a candidate, or just below one, and
is bucketed there by one dict lookup; the infinitely many replicas of a
periodic step below a span, back to the last candidate of the span before,
are summed onto the span's first candidate in closed form from one divmod per
step, and one running sum gives every value. A span no longer than a layer's
period (the one span [0, P) of every fully periodic scan) holds at most one
replica of each step, found by one index test. Multiplying by the positive
constants D and D * Dw keeps the order of candidates and of values, and the
first maximum and the first value reaching a threshold are taken in
increasing candidate order, so the value and the least argmax and witness
are those of the exact rational scan over the same candidates.
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
atoms, picks the candidates and checks the caps once. A periodic measure
reads one torus table (the cube sums above, or the sum of the offsets'
translates of the weight grid). A finite one sums its atoms inside every cube
of a candidate grid, one box per atom summed by prefix sums, or scatters
each atom onto its shifts p - w. Periodic and finite layers mix only on Z,
which sits inside the line with the same suprema and witnesses: there the
layers, with int positions and periods, go to the line scan's _scaled_scan
(D = 1; the window is the piece [-r, r] or one point piece per offset), and
the line sweep scans them at a cost independent of the radius. Both engines
end in one tail that takes the value, the least maximizer and the least
threshold witness from the int values. _zd_mass_at stays the Fraction
reference for single windows (window_mass). Every Z^d enumeration and the
line scan's periodic replicas are counted against Caps.enumeration before
anything is allocated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, pairwise, product, repeat
from math import ceil, floor, lcm, prod
from operator import add, mod, sub
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
    HaarTrace,
    MeasureSum,
    PeriodicDiscrete,
    WeightedDiracs,
    _Held,
    check_period,
)

# ---------------------------------------------------------------------------
# layer decomposition


@dataclass(frozen=True)
class AtomLayer:
    period: Union[None, Fraction, tuple[int, ...]]  # None for a finite layer
    atoms: tuple[tuple[object, Fraction], ...]  # (position or residue, weight)


@dataclass(frozen=True)
class PointLayer:
    """The counting atoms of a line configuration, in the integer normal form
    it holds: weight at x / D for each x in positions, repeated with period
    P / D unless P is None. The line scan reads the ints; period and atoms
    give the Fraction paths (real_mass) what an AtomLayer gives them."""

    D: int
    P: Optional[int]
    positions: tuple[int, ...]
    weight: int = 1

    @property
    def period(self) -> Optional[Fraction]:
        return None if self.P is None else Fraction(self.P, self.D)

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        w, D = Fraction(self.weight), self.D
        return tuple((Fraction(x, D), w) for x in self.positions)


@dataclass(frozen=True)
class TraceLayer:
    period: Optional[Fraction]
    periodic: Optional[PeriodicPattern] = None
    finite: Optional[IntervalUnion] = None


Layer = Union[AtomLayer, PointLayer, TraceLayer]


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
            points = group.check_points([p for p, _ in nu.atoms], nu._shape)
            layers.append(AtomLayer(None, tuple(zip(points, [w for _, w in nu.atoms]))))
        return
    if not isinstance(nu, (Counting, HaarTrace)):
        raise PreconditionError(f"unsupported measure: {type(nu).__name__}")
    s = nu.of

    def held(P, positions, weight=1):  # a line configuration's ints over its D
        if positions:
            layers.append(PointLayer(s._D, P, positions, weight))

    line = isinstance(group, RealLine)
    trace = line and isinstance(nu, HaarTrace)  # Lebesgue measure restricted to s
    count = line and isinstance(nu, Counting)
    if trace and isinstance(s, (_Held, ExplicitFinite)):
        pass  # a countable, Lebesgue-null support: the zero measure
    elif trace and isinstance(s, IntervalUnion):
        if not s.is_empty:
            layers.append(TraceLayer(None, finite=s))
    elif trace and isinstance(s, PeriodicPattern):
        if not s.pattern.is_empty:
            layers.append(TraceLayer(s.period, periodic=s))
    elif isinstance(s, ExplicitFinite):
        add(None, group.check_points(s.elements, s._shape))
    elif count and isinstance(s, _Held):  # the classes, extra, and removed at weight -1
        held(s._period, s._residues)
        held(None, s._extra)
        held(None, s._removed, -1)
        acc.extend(s.accumulation)
    elif isinstance(s, PeriodicDiscrete):  # a subset of Z^d alone: refused off it
        add(check_period(s, group), group.check_points(s.residues, s._shape))
    else:
        raise PreconditionError(
            f"{type(nu).__name__} of {type(s).__name__} is not a measure on {type(group).__name__}"
        )


def _layer_mass(layer: Layer, window: IntervalUnion) -> Fraction:
    total = Fraction(0)
    if not isinstance(layer, TraceLayer):
        if layer.period is None:
            for a, b in window.intervals:
                total += sum((w for p, w in layer.atoms if a <= p <= b), Fraction(0))
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


def _base_positions(layer: Layer) -> list[Fraction]:
    if isinstance(layer, TraceLayer):
        return (layer.finite if layer.period is None else layer.periodic.pattern).endpoints()
    return [p for p, _ in layer.atoms]


@dataclass(frozen=True)
class ShiftScan:
    value: object  # Fraction or Infinite
    argmax: Optional[Fraction]
    candidates: int  # shifts evaluated (_line_candidates, _zd_values); 0 for Infinite


# ---------------------------------------------------------------------------
# integer line-scan kernel


@dataclass(frozen=True)
class _IntLayer:
    """A layer scaled to ints: its period, event positions (_base_positions)
    and sweep steps, which change the slope of x -> mass for a trace and its
    value for an atom layer, held per side: those offset by a window piece's
    right end b and those offset by its left end a."""

    period: Optional[int]
    bases: list[int]
    trace: bool
    by_b: list[tuple[int, int]]  # (position, change), offset by b
    by_a: list[tuple[int, int]]  # (position, change), offset by a


def _atom_layer(period: Optional[int], bases, weights) -> _IntLayer:
    """The _IntLayer of atoms at the scaled positions bases, of the scaled
    weights (an iterable) and the scaled period (None for a finite layer).
    Masses are ints in units of 1/(D * Dw), so a weight is scaled by D * Dw.

    Sweep steps, for a window piece [a, b]: an atom of weight w at p adds w at
    the first x >= p - b, i.e. the first x > p - b - 1 (by b), and removes it
    at the first x > p - a (by a); a trace piece [s, e] (_trace_layer) changes
    the slope of x -> mass by +unit at s - b and e - a and by -unit at e - b
    and s - a. All steps of one atom or one trace piece come from its own base
    position, unreduced by the period, so for each window piece the changes of
    an atom's steps sum to 0, and those of a trace piece's steps sum to 0 also
    when multiplied by their positions. The closed forms of _sweep hold only
    while this does."""
    by_b = [(p - 1, w) for p, w in zip(bases, weights)]
    return _IntLayer(period, bases, False, by_b, [(p + 1, -w) for p, w in by_b])


def _trace_layer(period: Optional[int], bases, unit: int) -> _IntLayer:
    """The _IntLayer of a trace with the scaled endpoints bases, in pairs,
    and the scaled period, of slope unit (Dw) inside its pieces; its steps
    are those of _atom_layer."""
    by_b = [step for s, e in zip(bases[::2], bases[1::2]) for step in ((s, unit), (e, -unit))]
    return _IntLayer(period, bases, True, by_b, [(p, -d) for p, d in by_b])


def _line_candidates(int_layers: list[_IntLayer], ws: list[int]):
    """(candidates, starts): sorted scaled event points of x -> nu(x + W)
    holding every least maximizer and least threshold witness, and the index
    of the first candidate of each span.

    The candidates are 0, the finite events F (p - w, p a finite atom or
    trace endpoint) and the periodic events inside the spans: [0, P) when
    every layer is periodic (P the lcm of the periods); else [min F - P,
    min F], [e, e + P] for each e in F, merged where they overlap, and {0}.
    Between consecutive finite events the finite part is constant, so each
    value of the gap occurs, further left, in its first period; outside
    [min F, max F] it is 0. A finite trace is only linear there, so with one
    the span is the whole zone [min F - P, max F + P]."""
    periodic = [(l.period, l.bases) for l in int_layers if l.period is not None]
    events = set()
    for l in int_layers:
        if l.period is None:
            for w in ws:
                events.update(map(sub, l.bases, repeat(w)))
    cands = events | {0}
    if not (periodic and ws):  # an empty window has mass 0 at every shift
        return sorted(cands), [0]
    big = lcm(*(period for period, _ in periodic))
    if not events:
        los, his = [0], [big - 1]
    else:
        F = sorted(events)
        whole = any(l.trace for l in int_layers if l.period is None)
        cuts = [] if whole else [(e, f) for e, f in pairwise(F) if f - e > big]
        los = [F[0] - big, *(f for _, f in cuts)]
        his = [*(e + big for e, _ in cuts), F[-1] + big]
        j = bisect_right(los, 0)
        if not j or his[j - 1] < 0:  # 0 lies in a gap: a one-point span
            los.insert(j, 0)
            his.insert(j, 0)
    check_enumeration(
        sum(len(bases) * len(ws) * ((hi - lo) // period + 1)
            for lo, hi in zip(los, his) for period, bases in periodic),
        "the line scan: {count} periodic replicas exceed the enumeration cap {cap}",
    )
    for lo, hi in zip(los, his):
        for period, bases in periodic:
            # the replicas lo + x + j * period, x an event's offset mod the period:
            # walked by offset or, when there are fewer periods, by period
            offsets = sorted(set().union(
                *(map(mod, map(sub, bases, repeat(w + lo)), repeat(period)) for w in ws)
            ))
            if len(offsets) <= (hi - lo) // period:
                for x in offsets:
                    cands.update(range(lo + x, hi + 1, period))
            else:
                for j in range(lo, hi + 1, period):
                    cands.update(map(add, offsets[: bisect_right(offsets, hi - j)], repeat(j)))
    cands = sorted(cands)
    return cands, [bisect_left(cands, lo) for lo in los]


def _sweep(cands: list[int], starts: list[int], pieces: list[tuple[int, int]], int_layers):
    """x -> nu(x + window) at every candidate x, in units of 1/(D * Dw), as
    one running sum over the spans of _line_candidates.

    A step of a layer at y changes the values from the first candidate above
    y on: an atom's change d the value, a trace's change d the slope right of
    y. A finite step, and a periodic step's replica inside a span, lies on a
    candidate (a trace's, a leaving atom's) or just below one (an atom
    entering at p - b steps at p - b - 1), found by one dict lookup: it goes
    to the change of the value at y + 1 (entering), of the value right of y
    (leaving) or of the slope right of y (a trace).

    A periodic step repeats at y + jP for every j. With y - c = qP + r for
    the first candidate c of a span, the replicas c + r + jP, j >= 0, below
    its last candidate lie in the span: when the span is no longer than P
    there is one if r < last - c, and else they are walked. Those below c,
    j = k, ..., -q - 1 (k indexes the first replica at or after the last
    candidate of the span before, or is 0), go to c in closed form: n = -q - k
    times d to an atom's value or a trace's slope, plus d times their
    distances to c, P * n * (n + 1) / 2 - n * r, to the trace's value. The
    replicas left of j = 0 cancel, and n may be negative, because the steps
    of each atom and of each trace piece come from one base position
    (_atom_layer): the atom's changes sum to 0, and so do the piece's changes
    and their changes times positions."""
    m = len(cands)
    own = dict(zip(cands, range(m)))
    lasts = [cands[i - 1] for i in starts[1:]] + [cands[-1]]
    spans = list(zip(starts, [cands[i] for i in starts], lasts, [None, *lasts]))
    jumps = [0] * m  # value changes at each candidate
    drops = [0] * m  # value changes right of each candidate
    bends = [0] * m  # slope changes right of each candidate
    for l in int_layers:
        period, trace = l.period, l.trace
        below = bends if trace else jumps  # takes the closed form's n
        for a, b in pieces:
            # (offset, steps, key, changes): a step at y goes to changes[own[y + key]]
            sides = ((b, l.by_b, 0, bends), (a, l.by_a, 0, bends)) if trace else (
                (b, l.by_b, 1, jumps), (a, l.by_a, 0, drops))
            for off, steps, key, changes in sides:
                if period is None:
                    for p, d in steps:
                        changes[own[p - off + key]] += d
                    continue
                for i, c, last, before in spans:
                    width, o = last - c, off + c
                    one = width <= period  # at most one replica of each step in the span
                    count = area = 0  # the replicas below c
                    for p, d in steps:
                        q, r = divmod(p - o, period)  # k = -((y - before) // period)
                        n = -q if before is None else (p - off - before) // period - q
                        count += d * n
                        if trace:
                            area += d * (period * n * (n + 1) // 2 - n * r)
                        if r >= width:
                            continue
                        if one:
                            changes[own[c + r + key]] += d
                        else:
                            for z in range(c + r + key, last + key, period):
                                changes[own[z]] += d
                    below[i] += count
                    jumps[i] += area
    values = map(add, jumps, [0, *drops])
    if not any(bends):  # no slope anywhere
        return list(accumulate(values))
    # value(c_i) = value(c_{i-1}) + slope right of c_{i-1} * (c_i - c_{i-1}) + changes at c_i
    slopes = accumulate(bends, initial=0)  # the i-th is the slope right of c_{i-1}
    return list(
        accumulate(s * (c - p) + j for s, p, c, j in zip(slopes, [cands[0], *cands], cands, values))
    )


def _scaled_scan(layers, window: IntervalUnion):
    """(D, Dw, window pieces, _IntLayers, candidates, span starts) of a line
    scan (_line_candidates), in ints: positions, periods and window
    endpoints times D, weights times Dw.

    D is the lcm of the D each PointLayer holds and of the denominators of
    what holds Fractions: the window's endpoints and the positions and
    periods of traces and Dirac atoms, which common_scale scales. A
    PointLayer's ints are multiplied by D // layer.D only when that is not 1.
    Dw is the lcm of the denominators of the Dirac weights; a PointLayer's
    weight is an int already."""
    ws = window.endpoints()
    held = [l for l in layers if isinstance(l, PointLayer)]
    mixed = [l for l in layers if not isinstance(l, PointLayer)]
    bases = [_base_positions(l) for l in mixed]
    periods = [l.period for l in mixed if l.period is not None]
    D, ints = common_scale([*ws, *periods, *(q for b in bases for q in b)],
                           lcm(*(l.D for l in held)))
    dirac = [w for l in mixed if isinstance(l, AtomLayer) for _, w in l.atoms]
    Dw, weights = common_scale(dirac) if dirac else (1, [])
    weights = iter(weights)
    at = len(ws) + len(periods)
    ends, scaled_periods = ints[: len(ws)], iter(ints[len(ws) : at])
    int_layers = []
    for layer, b in zip(mixed, bases):
        period = None if layer.period is None else next(scaled_periods)
        xs = ints[at : at + len(b)]
        at += len(b)
        if isinstance(layer, TraceLayer):
            int_layers.append(_trace_layer(period, xs, Dw))
        else:
            int_layers.append(_atom_layer(period, xs, [next(weights) * D for _ in xs]))
    for layer in held:
        k = D // layer.D
        xs = layer.positions if k == 1 else [x * k for x in layer.positions]
        period = None if layer.P is None else layer.P * k
        int_layers.append(_atom_layer(period, xs, repeat(layer.weight * D * Dw)))
    pieces = list(zip(ends[::2], ends[1::2]))
    return D, Dw, pieces, int_layers, *_line_candidates(int_layers, ends)


def _line_values(layers, window: IntervalUnion):
    """(D, Dw, candidates, values): x -> nu(x + window) at every candidate, in
    increasing order; candidates in units of 1/D, values of 1/(D * Dw)."""
    D, Dw, pieces, int_layers, cands, starts = _scaled_scan(layers, window)
    return D, Dw, cands, _sweep(cands, starts, pieces, int_layers)


def _line_scan(nu, window: IntervalUnion, threshold: Optional[Fraction] = None):
    """The least candidate reaching threshold (None if none does or no
    threshold is given) and the ShiftScan with the least maximizer.

    When nu has an accumulation marker and the window a piece of positive
    length, the candidate is a shift at which that piece traps the marker on
    its accumulating side, and the scan's value there is Infinite."""
    layers, acc = measure_layers(nu, RealLine())
    piece = next(((a, b) for a, b in window.intervals if b > a), None) if acc else None
    if piece:
        ap = acc[0]
        x = ap.point - (piece[1] if ap.side == "below" else piece[0])
        return x, ShiftScan(Infinite(("accumulation", ap, window.translate(x))), x, 0)
    D, Dw, cands, values = _line_values(layers, window)
    return _scan_tail(D * Dw, values, lambda i: Fraction(cands[i], D), threshold)


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
    is a cube radius r, meaning the offsets [-r, r]^d, or an ExplicitFinite
    of offsets (checked once, by check_points).

    The candidates: the period torus in row-major order when every layer is
    periodic; the line scan's (_scaled_scan) when periodic and finite layers
    mix (on Z only), the positions, periods and window ends being ints (D = 1);
    else the grid of the coordinates p_i - r of the atoms p and 0 for a
    cube, or the sorted shifts p - w of the atoms by the offsets and the
    origin."""
    layers, _ = measure_layers(nu, group)
    cube = isinstance(window, int)
    if not cube:
        window = group.check_points(window.elements, window._shape)
    periodic = [l for l in layers if l.period is not None]
    if periodic and len(periodic) < len(layers):
        if group.dimension != 1:
            raise PreconditionError("mixed periodic and finite lattice layers need d = 1")
        line = [AtomLayer(None if l.period is None else l.period[0],
                          tuple((c, w) for (c,), w in l.atoms)) for l in layers]
        if cube:  # a negative radius is the empty window
            pieces = [(-window, window)] if window >= 0 else []
        else:
            pieces = [(w, w) for (w,) in window]
        _, Dw, cands, values = _line_values(line, IntervalUnion(pieces))  # D = 1: int data
        return Dw, values, lambda i: (cands[i],)
    finite = [a for l in layers if l.period is None for a in l.atoms]
    Dw, weights = common_scale([w for l in periodic for _, w in l.atoms] + [w for _, w in finite])
    atoms: dict[tuple[int, ...], int] = {}
    for (p, _), w in zip(finite, weights[len(weights) - len(finite) :]):
        atoms[p] = atoms.get(p, 0) + w
    if periodic:
        torus = FiniteAbelian(tuple(lcm(*ms) for ms in zip(*(l.period for l in periodic))))
        check_enumeration(torus.order, "the period torus: " + CENTERS_OVER_CAP)
        grid = _torus_weights(periodic, torus.moduli, weights)
        if cube:
            return Dw, _torus_cube_masses(grid, torus.moduli, window), torus.element
        values = [0] * len(grid)  # the sum of the offsets' translates of the weight grid
        for w in window:
            values = [v + grid[i] for v, i in zip(values, torus.translate(w))]
        return Dw, values, torus.element
    if cube:
        axes = [sorted({p[i] - window for p in atoms} | {0}) for i in range(group.dimension)]
        check_enumeration(prod(map(len, axes)), "the support's bounding grid: " + CENTERS_OVER_CAP)
        cells = FiniteAbelian(tuple(map(len, axes)))
        values = _cube_counts(atoms, axes, window)
        return Dw, values, lambda i: tuple(a[k] for a, k in zip(axes, cells.element(i)))
    shifts: dict[tuple[int, ...], int] = {}
    for p, v in atoms.items():
        for w in window:
            x = tuple(map(sub, p, w))
            shifts[x] = shifts.get(x, 0) + v
    cands = sorted(shifts.keys() | {group.zero()})
    return Dw, [shifts.get(x, 0) for x in cands], cands.__getitem__


def _scan_tail(unit: int, values: list[int], at, threshold: Optional[Fraction]):
    """The least candidate reaching threshold (None if none does or no
    threshold is given) and the ShiftScan with the least maximizer, from the
    values at the candidates in increasing order, in units of 1/unit; at(i)
    is the i-th candidate."""
    best = max(values)
    scan = ShiftScan(Fraction(best, unit), at(values.index(best)), len(values))
    if threshold is not None and (limit := ceil(threshold * unit)) <= best:
        return at(next(i for i, v in enumerate(values) if v >= limit)), scan
    return None, scan


def _zd_scan(nu, group: ZLattice, window, threshold: Optional[Fraction] = None):
    """_scan_tail of the candidates of _zd_values."""
    return _scan_tail(*_zd_values(nu, group, window), threshold)


def zd_shift_sup(nu, group: ZLattice, r: int) -> ShiftScan:
    """sup over integer centers x of the cube mass, least maximizer first.

    Raises CapExceededError when the centers to scan exceed Caps.enumeration."""
    return _zd_scan(nu, group, r)[1]


def zd_threshold_witness(nu, group: ZLattice, window: ExplicitFinite, threshold: Fraction):
    """Least candidate x with nu(window + x) >= threshold (None if none does),
    and the ShiftScan of x -> nu(window + x) over the candidates of _zd_values."""
    return _zd_scan(nu, group, window, threshold)


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
            x = group.check(x)
            return _zd_mass_at(measure_layers(nu, group)[0], x, window)
        raise PreconditionError("lattice windows are integer cube radii")
    raise PreconditionError(f"window_mass unsupported on {type(group).__name__}")

"""Independent exact reference results for the benchmark's correctness gate.

Nothing here imports density_lab. Every function recomputes, from the raw
generated parameters and with plain Fractions and tuples, the output that the
library must return for the same input: shift suprema with their least
maximizer, cube suprema on Z^2, the canonical greedy translate set, the
size-then-lexicographic minimum cover, first-fit class counts, and the
class count and mu(T) of the full cover pipeline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd

ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# interval unions: canonical sorted tuples of closed (a, b) pairs


def canon(pairs) -> tuple:
    """Sorted, with overlapping or touching intervals merged."""
    out: list = []
    for a, b in sorted(pairs):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def length(u) -> Fraction:
    return sum((b - a for a, b in u), ZERO)


def contains(u, q) -> bool:
    return any(a <= q <= b for a, b in u)


def difference(u) -> tuple:
    """u - u."""
    return canon((a - d, b - c) for a, b in u for c, d in u)


def complement_within(u, lo, hi) -> tuple:
    """Closure of [lo, hi] minus u, keeping pieces of positive length."""
    gaps = []
    cursor = lo
    for a, b in u:
        if b < lo or a > hi:
            continue
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return canon(g for g in gaps if g[1] > g[0])


def reduce_mod(u, period) -> tuple:
    """A periodic set's pattern folded into [0, period]."""
    pieces = []
    for a, b in u:
        if b - a >= period:
            return ((ZERO, period),)
        shift = floor(a / period) * period
        a2, b2 = a - shift, b - shift
        if b2 <= period:
            pieces.append((a2, b2))
        else:
            pieces.append((a2, period))
            pieces.append((ZERO, b2 - period))
    return canon(pieces)


def _lcm(a: Fraction, b: Fraction) -> Fraction:
    num = a.numerator * b.denominator
    other = b.numerator * a.denominator
    return Fraction(num * other // gcd(num, other), a.denominator * b.denominator)


# ---------------------------------------------------------------------------
# measures on the line


class _PeriodicAtoms:
    def __init__(self, period, atoms):
        self.period = period
        atoms = sorted(atoms)
        self.pos = [p for p, _ in atoms]
        self.prefix = [ZERO]
        for _, w in atoms:
            self.prefix.append(self.prefix[-1] + w)

    def mass(self, lo, hi):
        p, total = self.period, self.prefix[-1]
        k_hi, k_lo = floor(hi / p), floor(lo / p)
        upto = k_hi * total + self.prefix[bisect_right(self.pos, hi - k_hi * p)]
        below = k_lo * total + self.prefix[bisect_left(self.pos, lo - k_lo * p)]
        return upto - below

    def bases(self):
        return self.pos


class _FiniteAtoms(_PeriodicAtoms):
    def __init__(self, atoms):
        super().__init__(None, atoms)

    def mass(self, lo, hi):
        return self.prefix[bisect_right(self.pos, hi)] - self.prefix[bisect_left(self.pos, lo)]


class _PeriodicTrace:
    def __init__(self, period, pattern):
        self.period = period
        self.pattern = canon(pattern)
        self.starts = [a for a, _ in self.pattern]
        self.cum = [ZERO]
        for a, b in self.pattern:
            self.cum.append(self.cum[-1] + b - a)

    def _upto(self, t):
        k = floor(t / self.period)
        s = t - k * self.period
        i = bisect_right(self.starts, s)
        partial = ZERO
        if i:
            a, b = self.pattern[i - 1]
            partial = self.cum[i - 1] + min(b, s) - a
        return k * self.cum[-1] + partial

    def mass(self, lo, hi):
        return self._upto(hi) - self._upto(lo)

    def bases(self):
        return [e for ab in self.pattern for e in ab]


class LineMeasure:
    """Periodic atoms, finite atoms and periodic Haar traces on the line."""

    def __init__(self, periodic_atoms=(), finite_atoms=(), periodic_traces=()):
        self.periodic = [_PeriodicAtoms(p, atoms) for p, atoms in periodic_atoms]
        self.periodic += [_PeriodicTrace(p, pattern) for p, pattern in periodic_traces]
        self.finite = [_FiniteAtoms(finite_atoms)] if finite_atoms else []

    def mass(self, window, x, layers=None) -> Fraction:
        layers = self.periodic + self.finite if layers is None else layers
        return sum((l.mass(a + x, b + x) for l in layers for a, b in window), ZERO)


def _periodic_candidates(nu: LineMeasure, ws) -> list:
    """0 and every event point of the periodic layers in one combined period [0, P)."""
    big = nu.periodic[0].period
    for l in nu.periodic[1:]:
        big = _lcm(big, l.period)
    cands = {ZERO}
    for l in nu.periodic:
        for s in l.bases():
            for w in ws:
                e = (s - w) % l.period
                cands.update(e + j * l.period for j in range(int(big / l.period)))
    return sorted(cands)


def shift_sup(nu: LineMeasure, window):
    """(sup_x nu(x + window), least maximizer or None when it is not determined).

    Fully periodic measures are scanned over one combined period [0, P); the
    least maximizer there is determined. With finite atoms the supremum is
    the larger of the periodic part's far-field supremum and the best event
    point inside the zone the atoms can reach; the least maximizer is
    determined only when that zone wins strictly.
    """
    ws = sorted({e for ab in window for e in ab})
    far_sup, far_arg = ZERO, None
    if nu.periodic:
        for x in _periodic_candidates(nu, ws):
            v = nu.mass(window, x, nu.periodic)
            if far_arg is None or v > far_sup:
                far_sup, far_arg = v, x
    if not nu.finite:
        return far_sup, far_arg
    support = nu.finite[0].pos
    zone_lo, zone_hi = support[0] - ws[-1], support[-1] - ws[0]
    cands = {s - w for s in support for w in ws}
    for l in nu.periodic:
        for s in l.bases():
            for w in ws:
                e = s - w
                k = ceil((zone_lo - e) / l.period)
                while e + k * l.period <= zone_hi:
                    cands.add(e + k * l.period)
                    k += 1
    best, best_x = None, None
    for x in sorted(cands):
        v = nu.mass(window, x)
        if best is None or v > best:
            best, best_x = v, x
    if nu.periodic and best <= far_sup:
        return far_sup, None
    return best, best_x


def threshold_witness(nu: LineMeasure, window, threshold):
    """Least x in [0, P) with nu(x + window) >= threshold for a fully periodic
    measure, else None."""
    ws = sorted({e for ab in window for e in ab})
    return next((x for x in _periodic_candidates(nu, ws) if nu.mass(window, x) >= threshold), None)


# ---------------------------------------------------------------------------
# Z^2 cube suprema through wrapped sliding sums


def _wrapped_window_sums(values, r):
    """out[c] = sum of values[t mod m] for t in [c - r, c + r]."""
    m = len(values)
    full, rem = divmod(2 * r + 1, m)
    base = full * sum(values)
    doubled = values + values
    prefix = [0]
    for v in doubled:
        prefix.append(prefix[-1] + v)
    return [base + prefix[(c - r) % m + rem] - prefix[(c - r) % m] for c in range(m)]


def cube_sup(period, residues, r):
    """(max cube mass, least lexicographic center in the fundamental box)."""
    m1, m2 = period
    grid = [[0] * m2 for _ in range(m1)]
    for i, j in residues:
        grid[i % m1][j % m2] = 1
    rows = [_wrapped_window_sums(row, r) for row in grid]
    cols = [_wrapped_window_sums([rows[i][j] for i in range(m1)], r) for j in range(m2)]
    best, best_x = -1, None
    for i in range(m1):
        for j in range(m2):
            if cols[j][i] > best:
                best, best_x = cols[j][i], (i, j)
    return best, best_x


# ---------------------------------------------------------------------------
# translate covers on Z and on finite groups


def greedy_line(m, residues):
    """Canonical greedy B on Z/m: accept c unless c lies in b + (A - A)."""
    a = sorted({r % m for r in residues})
    diff_mask = 0
    for x in a:
        for y in a:
            diff_mask |= 1 << ((x - y) % m)
    full = (1 << m) - 1
    blocked, chosen = 0, []
    for c in range(m):
        if not (blocked >> c) & 1:
            chosen.append(c)
            blocked |= ((diff_mask << c) | (diff_mask >> (m - c))) & full
    return chosen


def difference_residues(m, residues):
    return sorted({(x - y) % m for x in residues for y in residues})


def max_circular_gap(m, residues):
    res = sorted(residues)
    gaps = [b - a for a, b in zip(res, res[1:])]
    gaps.append(res[0] + m - res[-1])
    return max(gaps)


def min_cover(moduli, subset):
    """First K in size-then-lexicographic order with subset + K = the group
    Z_{m_1} x ... x Z_{m_k}; cells are in lexicographic order."""
    cells = list(product(*(range(m) for m in moduli)))
    index = {c: i for i, c in enumerate(cells)}
    covers = []
    for k in cells:
        mask = 0
        for s in subset:
            mask |= 1 << index[tuple((a + b) % m for a, b, m in zip(s, k, moduli))]
        covers.append(mask)
    full = (1 << len(cells)) - 1
    for size in range(1, len(cells) + 1):
        for combo in combinations(range(len(cells)), size):
            mask = 0
            for i in combo:
                mask |= covers[i]
            if mask == full:
                return tuple(cells[i] for i in combo)
    raise ValueError("no cover")


def finite_group_ratio(moduli, masses, C, V):
    """nu(V) / #(C + V) in Z_{m_1} x ... x Z_{m_k}."""
    cv = {tuple((a + b) % m for a, b, m in zip(c, v, moduli)) for c in C for v in V}
    return sum((masses.get(v, ZERO) for v in V), ZERO) / len(cv)


# ---------------------------------------------------------------------------
# first-fit partitions and the cover pipeline on the line


def _first_fit(points, conflict):
    colors = {}
    for i, q in enumerate(points):
        taken = {colors[t] for t in points[:i] if conflict(t, q)}
        c = 0
        while c in taken:
            c += 1
        colors[q] = c
    return colors


def partition_finite(points, H):
    """(class count, window bound k) of the first-fit partition of sorted points."""
    Q = difference(H)
    colors = _first_fit(points, lambda u, v: u != v and contains(Q, v - u))
    n = max(colors.values()) + 1 if points else 0
    k = max(sum(1 for t in points if contains(Q, t - s)) for s in points)
    return n, k


def materialize_perturbed(step, extra, removed):
    """Points of a perturbed lattice over its perturbation span plus two steps."""
    pts = list(extra) + list(removed)
    lo, hi = min(pts) - 2 * step, max(pts) + 2 * step
    removed = set(removed)
    out = [p for p in extra if lo <= p <= hi]
    k = ceil(lo / step)
    while k * step <= hi:
        if k * step not in removed:
            out.append(k * step)
        k += 1
    return sorted(out)


def _reduced_period(period, residues):
    """Minimal period of a periodic point set, as PeriodicPoints.reduced finds it."""
    n = len(residues)
    res = set(residues)
    for k in range(n, 1, -1):
        if n % k:
            continue
        cand = period / k
        if all((r + cand) % period in res for r in residues):
            return cand, sorted({r % cand for r in residues})
    return period, sorted(residues)


def pipeline(period, residues, epsilon, H=None):
    """(class count, mu(T), L of the auto-constructed H or None) of the cover
    pipeline on residues + period * Z."""
    residues = sorted(residues)
    rho = Fraction(len(residues)) / period
    L = None
    if H is None:
        nu = LineMeasure(periodic_atoms=[(period, [(r, Fraction(1)) for r in residues])])
        M = max(1, ceil(2 / epsilon))
        while True:
            c = M * period
            if shift_sup(nu, ((ZERO, c),))[0] <= rho * (1 + epsilon / 2) * c:
                break
            M += 1
        eta = epsilon / (2 + epsilon)
        L = floor(c / (2 * eta)) + 1
        H = ((ZERO, Fraction(L)),)
    Q = difference(H)
    span = Q[-1][1] - Q[0][0]
    reps = max(1, floor(span / period) + 1)
    while reps * period <= span:
        reps += 1
    P = reps * period
    expanded = sorted(r + j * period for r in residues for j in range(reps))

    def conflict(u, v):
        d = (v - u) % P
        return d != 0 and (contains(Q, d) or contains(Q, d - P))

    colors = _first_fit(expanded, conflict)
    n = max(colors.values()) + 1
    classes = [[q for q in expanded if colors[q] == c] for c in range(n)]
    sizes = [len(cl) for cl in classes]
    p_j, res_j = _reduced_period(P, classes[sizes.index(max(sizes))])
    fat = reduce_mod(canon((r + lo, r + hi) for r in res_j for lo, hi in H), p_j)
    D = reduce_mod(difference(fat), p_j)
    chosen, covered = [], ()
    while True:
        gaps = complement_within(covered, ZERO, p_j)
        if not gaps:
            break
        a, b = gaps[0]
        r = a % p_j
        on = contains(covered, r) or (r == 0 and contains(covered, p_j))
        cand = (a + b) / 2 if on else a
        chosen.append(cand)
        shifted = reduce_mod(canon((x + cand, y + cand) for x, y in D), p_j)
        covered = canon(covered + shifted)
    T = canon((b + lo, b + hi) for b in chosen for lo, hi in Q)
    return n, length(T), L

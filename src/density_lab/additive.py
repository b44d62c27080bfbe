"""Difference-set structure: gap analysis on Z, syndetic verification over a
fundamental domain, and exact minimum translate covers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .config import DEFAULT_CAPS
from .errors import PreconditionError, VerificationError
from .groups import FiniteAbelian, GroupSpec, RealLine, ZLattice, bits, mask_of
from .intervals import IntervalUnion, PeriodicPattern, gaps_within, merge_pairs
from .rational import common_scale
from .sets import (
    ExplicitFinite,
    FinitePoints,
    PeriodicDiscrete,
    _canonical,
    _Held,
    _points_within,
    discrete_quotient,
    minkowski_sum,
)


# ---------------------------------------------------------------------------
# gap analysis


@dataclass(frozen=True)
class GapReport:
    gaps: tuple[int, ...]
    max_gap: int
    bounded: bool
    period: Optional[int]  # certifying period for periodic inputs
    positive_elements: tuple[int, ...]  # scanned evidence prefix


def gap_analysis(D, group: ZLattice = ZLattice(1)) -> GapReport:
    """Consecutive gaps d_{n+1} - d_n of the positive elements of D in Z.

    For periodic D the maximal gap is exact (the largest circular gap of the
    residues), certified by the period; a prefix of at most 200 positive
    elements is attached as evidence. Explicit sets are scanned as given,
    with no boundedness claim.
    """
    if group != ZLattice(1):
        raise PreconditionError(f"gap analysis runs on Z, not on {group}")
    if isinstance(D, PeriodicDiscrete):
        if D.dimension != 1:
            raise PreconditionError("gap analysis runs on Z")
        m = D.period[0]
        residues = sorted(D.line_residues())
        if not residues:
            raise PreconditionError("empty positive part")
        circular = [b - a for a, b in zip(residues, residues[1:])]
        circular.append(residues[0] + m - residues[-1])
        positives = [r + k * m for k in range(0, 3) for r in residues]
        positives = sorted(p for p in positives if p > 0)[:200]
        gaps = tuple(b - a for a, b in zip(positives, positives[1:]))
        return GapReport(
            gaps=gaps,
            max_gap=max(circular),
            bounded=True,
            period=m,
            positive_elements=tuple(positives),
        )
    if isinstance(D, ExplicitFinite):
        positives = sorted(p for (p,) in group.check_points(D.elements, D._shape) if p > 0)
        if not positives:
            raise PreconditionError("empty positive part")
        gaps = tuple(b - a for a, b in zip(positives, positives[1:]))
        return GapReport(
            gaps=gaps,
            max_gap=max(gaps) if gaps else 0,
            bounded=False,
            period=None,
            positive_elements=tuple(positives),
        )
    raise PreconditionError(f"unsupported gap-analysis input: {type(D).__name__}")


# ---------------------------------------------------------------------------
# syndetic verification


@dataclass(frozen=True)
class SyndeticCertificate:
    translate_set: object
    verified: bool
    covering_witness: object  # per-cell translate map, or the least uncovered point


def syndetic_check(S, K, group: GroupSpec) -> SyndeticCertificate:
    """Exact test that S + K covers the group, reduced to one fundamental domain.

    Periodic and finite-group instances check every cell and record a covering
    translate per cell; on failure the least uncovered cell is the witness. On
    the line, S is a periodic pattern or a configuration with a period and no
    marker, K an interval union: the residue classes of S plus K must cover
    one period, and S plus K the zone around the points S adds or removes,
    widened by K and one period; on failure the witness is the midpoint of
    the least gap.
    """
    if isinstance(group, (FiniteAbelian, ZLattice)):
        found = discrete_quotient(S, group) if isinstance(K, ExplicitFinite) else None
        if found is None:
            raise PreconditionError(
                "finite-group syndetic checks need explicit sets"
                if isinstance(group, FiniteAbelian)
                else "lattice syndetic checks need periodic S and finite K"
            )
        quotient, s_indices, lift = found
        translates = group.check_points(K.elements, K._shape)
        s_mask = mask_of(s_indices)
        full = (1 << quotient.order) - 1
        # first[g]: position in K of the first k with g - k in S, as a per-cell scan finds it
        first = [None] * quotient.order
        covered = 0
        for j, k in enumerate(translates):
            new = quotient.shift(s_mask, k) & ~covered
            for i in bits(new):
                first[i] = j
            covered |= new
            if covered == full:
                break
        if covered != full:
            least = (~covered & (covered + 1)).bit_length() - 1
            return SyndeticCertificate(K, False, lift(quotient.element(least)))
        cells = quotient.elements()
        return SyndeticCertificate(K, True, {lift(g): K.elements[j] for g, j in zip(cells, first)})
    if isinstance(group, RealLine):
        held = isinstance(S, _Held) and S._period and not S.accumulation
        if not (held or isinstance(S, PeriodicPattern)):
            raise PreconditionError("line syndetic checks need a periodic S")
        if not isinstance(K, (FinitePoints, IntervalUnion)):
            raise PreconditionError("line translate sets are points or interval unions")
        classes = _canonical(S._D, S._period, S._residues) if held else S
        summed = minkowski_sum(classes, K, group)
        if not isinstance(summed, PeriodicPattern):
            raise PreconditionError("S + K must have positive measure to cover the line")
        gap = next(gaps_within(summed.pattern.intervals, 0, summed.period), None)
        F = held and S._extra + S._removed  # the points S adds or removes
        if gap is None and F:
            # a point x that S + K misses has every class point of x - K
            # removed, so x lies in M + K, inside the zone [lo, hi]: ints over E
            E, ends = common_scale(chain(*K.intervals), S._D)
            k, pieces = E // S._D, list(zip(ends[::2], ends[1::2]))
            lo, hi = (min(F) - S._period) * k + ends[0], (max(F) + S._period) * k + ends[-1]
            near = _points_within(S, E, lo - ends[-1], hi - ends[0])
            covered = merge_pairs((x + a, x + b) for x in near for a, b in pieces)
            if (gap := next(gaps_within(covered, lo, hi), None)) is not None:
                return SyndeticCertificate(K, False, Fraction(sum(gap), 2 * E))
        if gap is None:
            return SyndeticCertificate(K, True, summed)
        a, b = gap
        return SyndeticCertificate(K, False, (a + b) / 2)
    raise PreconditionError(f"syndetic check unsupported on {type(group).__name__}")


# ---------------------------------------------------------------------------
# exact minimum translate covers


@dataclass(frozen=True)
class TranslateCover:
    translates: tuple
    size: int
    exact: bool  # exhaustive optimum vs greedy upper bound
    verified: bool


def minimal_translates(S, group: GroupSpec) -> TranslateCover:
    """Smallest K with S + K = G, exact for fundamental domains of at most
    Caps.exact_cover_cells cells (first cover in size-then-lexicographic
    order, so the result is canonical); larger instances fall back to flagged
    greedy set cover.

    The exact search is depth-first over the combinations of each size in
    lexicographic order, with two cuts that drop only branches holding no
    cover, so the first cover found is the first combination that covers:
    the next pick is at most the last translate covering the least uncovered
    cell (a later pick leaves that cell uncovered for good), and a branch
    stops when its uncovered cells outnumber the picks left times the
    largest cover."""
    cells, covers, lift = _cover_instance(S, group)
    n = len(cells)
    full = (1 << n) - 1
    if not any(covers):
        raise PreconditionError("S is empty")
    if n <= DEFAULT_CAPS.exact_cover_cells:
        combo = _least_cover(covers, n)
        if combo is None:
            raise VerificationError("no cover exists", counterexample=S)
        return TranslateCover(
            translates=tuple(lift(cells[i]) for i in combo),
            size=len(combo),
            exact=True,
            verified=True,
        )
    chosen = []
    mask = 0
    while mask != full:
        best = max(range(n), key=lambda i: (covers[i] | mask).bit_count())
        if covers[best] | mask == mask:
            raise VerificationError("greedy cover stalled", counterexample=S)
        chosen.append(best)
        mask |= covers[best]
    return TranslateCover(
        translates=tuple(lift(cells[i]) for i in chosen),
        size=len(chosen),
        exact=False,
        verified=True,
    )


def _least_cover(covers: list[int], n: int) -> Optional[list[int]]:
    """The first combination of indices, in size-then-lexicographic order,
    whose covers (bitmasks over n cells) union to all cells, or None."""
    full = (1 << n) - 1
    # last[cell]: the last translate that covers the cell
    last = [max((i for i, c in enumerate(covers) if c >> cell & 1), default=-1)
            for cell in range(n)]
    widest = max(c.bit_count() for c in covers)
    picks: list[int] = []

    def search(start: int, mask: int, left: int) -> bool:
        # no smaller size covers, so a prefix short of `left` leaves rest != 0
        if not left:
            return mask == full
        rest = full & ~mask
        if rest.bit_count() > left * widest:
            return False
        for i in range(start, last[(rest & -rest).bit_length() - 1] + 1):
            picks.append(i)
            if search(i + 1, mask | covers[i], left - 1):
                return True
            picks.pop()
        return False

    return next((picks for size in range(1, n + 1) if search(0, 0, size)), None)


def _cover_instance(S, group):
    """Cells of the fundamental domain, the coverage bitmask of each candidate
    translate, and a lift back to group elements."""
    found = discrete_quotient(S, group) if isinstance(group, (FiniteAbelian, ZLattice)) else None
    if found is None:
        raise PreconditionError(
            f"minimum covers need a finite group or a periodic subset of Z^d, got {type(S).__name__}"
        )
    quotient, s_indices, lift = found
    cells = quotient.elements()
    s_mask = mask_of(s_indices)
    return cells, quotient.translates(s_mask), lift

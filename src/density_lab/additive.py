"""Difference-set structure: gap analysis on Z, syndetic verification over a
fundamental domain, and exact minimum translate covers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT_CAPS
from .errors import PreconditionError, VerificationError
from .groups import FiniteAbelian, GroupSpec, RealLine, ZLattice, bits, mask_of
from .intervals import IntervalUnion, PeriodicPattern
from .sets import (
    ExplicitFinite,
    FinitePoints,
    PeriodicDiscrete,
    PeriodicPoints,
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
        positives = sorted(e[0] for e in D.elements if e[0] > 0)
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
    the line, S + K must be periodic and is checked by interval covering.
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
        translates = [group.check(k) for k in K.elements]
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
        if isinstance(S, (PeriodicPoints, PeriodicPattern)):
            if not isinstance(K, (FinitePoints, IntervalUnion)):
                raise PreconditionError("line translate sets are points or interval unions")
            summed = minkowski_sum(S, K, group)
            if isinstance(summed, PeriodicPattern):
                gaps = summed.pattern.complement_within(0, summed.period)
                if gaps.is_empty:
                    return SyndeticCertificate(K, True, summed)
                a, b = gaps.intervals[0]
                return SyndeticCertificate(K, False, (a + b) / 2)
            raise PreconditionError("S + K must have positive measure to cover the line")
        raise PreconditionError("line syndetic checks need a periodic S")
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
    greedy set cover."""
    cells, covers, lift = _cover_instance(S, group)
    n = len(cells)
    full = (1 << n) - 1
    if not any(covers):
        raise PreconditionError("S is empty")
    if n <= DEFAULT_CAPS.exact_cover_cells:
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                mask = 0
                for i in combo:
                    mask |= covers[i]
                if mask == full:
                    return TranslateCover(
                        translates=tuple(lift(cells[i]) for i in combo),
                        size=size,
                        exact=True,
                        verified=True,
                    )
        raise VerificationError("no cover exists", counterexample=S)
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
    return cells, [quotient.shift(s_mask, k) for k in cells], lift

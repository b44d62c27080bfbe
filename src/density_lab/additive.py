"""Difference-set structure: gap analysis on Z, syndetic verification over a
fundamental domain, and exact minimum translate covers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT_CAPS
from .errors import PreconditionError, VerificationError
from .groups import FiniteAbelian, GroupSpec, RealLine, ZLattice
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


def gap_analysis(D, group: ZLattice = ZLattice(1), scan_limit: int = 200) -> GapReport:
    """Consecutive gaps d_{n+1} - d_n of the positive elements of D.

    For periodic D the maximal gap is exact (the largest circular gap of the
    residues), certified by the period; a two-period prefix is attached as
    evidence. Explicit sets are scanned as given, with no boundedness claim.
    """
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
        positives = sorted(p for p in positives if p > 0)[: scan_limit]
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
        in_s = bytearray(quotient.order)
        for i in s_indices:
            in_s[i] = 1
        # first[g]: position in K of the first k with g - k in S, as a per-cell scan finds it
        first = [None] * quotient.order
        for j, k in enumerate(translates):
            minus_k = quotient.translate(tuple(-c for c in k))
            first = [j if f is None and in_s[t] else f for f, t in zip(first, minus_k)]
            if None not in first:
                break
        cells = quotient.elements()
        if None in first:
            return SyndeticCertificate(K, False, lift(cells[first.index(None)]))
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


def minimal_translates(
    S, group: GroupSpec, cap: int = DEFAULT_CAPS.exact_cover_cells
) -> TranslateCover:
    """Smallest K with S + K = G, exact for fundamental domains of at most
    `cap` cells (first cover in size-then-lexicographic order, so the result
    is canonical); larger instances fall back to flagged greedy set cover."""
    cells, covers, lift = _cover_instance(S, group)
    n = len(cells)
    full = (1 << n) - 1
    if not any(covers):
        raise PreconditionError("S is empty")
    if n <= cap:
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
    covers = [0] * len(cells)
    for i in s_indices:
        for k, j in enumerate(quotient.translate(cells[i])):  # j = index of s + k
            covers[k] |= 1 << j
    return cells, covers, lift

"""Concrete group families and their arithmetic.

Four families are supported: integer lattices Z^d, finite abelian products of
cyclic groups, the real line with exact rational coordinates, and finite-depth
materializations of sigma-finite chains (increasing unions of finite
subgroups). Elements are plain immutable values: integer tuples for the
discrete families (chain elements canonically strip trailing zeros) and
Fractions on the real line. All operations are pure.

FiniteAbelian is the one index for every finite quotient: a finite group,
Z^d / PZ^d = FiniteAbelian(P) for a period P (a modulus of 1 is Z_1), and a
chain subgroup H_n. index(g) is the row-major mixed-radix position of g, the
order elements() lists (Knuth, TAOCP vol. 2, 4.1), so hot loops run on ints.
A subset X is one int, its mask, whose bit i is set iff element(i) lies in X
(mask_of builds it, bits lists it). shift(mask, k) is the mask of X + k: on
each axis the cells whose coordinate stays below the modulus move up by
c * stride bits and the others wrap down, two masked big-int shifts, so a
translate costs a few operations on order bits per axis; translates(mask)
makes every shift of X, axis by axis, in element order. translate(k) is
the same map as a list of indices, one int per element, built from one short
list per axis; _translate_at(k, at) gives its entries at the indices at by
index arithmetic, with no division on the last axis (stride 1). check_points
checks a set's or measure's points at once where its constructor recorded
their int-tuple shape (sets._int_shape), and else as check checks each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import prod
from typing import Union

from .config import check_enumeration
from .errors import CapExceededError, PreconditionError, ShapeMismatchError
from .rational import rat

def _as_int_tuple(g, dimension: int, what: str = "element") -> tuple[int, ...]:
    if isinstance(g, int) and not isinstance(g, bool) and dimension == 1:
        return (g,)
    if isinstance(g, (tuple, list)) and len(g) == dimension and all(
        isinstance(c, int) and not isinstance(c, bool) for c in g
    ):
        return tuple(g)
    raise ShapeMismatchError(f"{what} {g!r} is not an integer {dimension}-tuple")


@dataclass(frozen=True)
class ZLattice:
    """The lattice Z^d with counting Haar measure."""

    dimension: int = 1

    def __post_init__(self):
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise PreconditionError("lattice dimension must be a positive integer")

    def check(self, g) -> tuple[int, ...]:
        return _as_int_tuple(g, self.dimension)

    def check_points(self, points, shape):
        """[check(p) for p in points]: the points themselves when their held
        shape is the dimension, else each converted or refused by check."""
        return points if shape == self.dimension else [self.check(p) for p in points]

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dimension

    def add(self, g, h):
        g, h = self.check(g), self.check(h)
        return tuple(a + b for a, b in zip(g, h))

    def negate(self, g):
        g = self.check(g)
        return tuple(-a for a in g)


@dataclass(frozen=True)
class FiniteAbelian:
    """Product of cyclic groups Z_{m_1} x ... x Z_{m_k}; empty moduli = trivial group."""

    moduli: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if any(not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in self.moduli):
            raise PreconditionError("all moduli must be integers >= 1")

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def check(self, g) -> tuple[int, ...]:
        g = _as_int_tuple(g, len(self.moduli))
        if any(not (0 <= c < m) for c, m in zip(g, self.moduli)):
            raise ShapeMismatchError(f"{g!r} has coordinates outside the moduli {self.moduli}")
        return g

    def check_points(self, points, shape):
        """As ZLattice.check_points, a held shape checked by each axis's min and max."""
        held = shape == len(self.moduli) and all(
            0 <= min(col) and max(col) < m for col, m in zip(zip(*points), self.moduli))
        return points if held else [self.check(p) for p in points]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def add(self, g, h):
        g, h = self.check(g), self.check(h)
        return tuple((a + b) % m for a, b, m in zip(g, h, self.moduli))

    def negate(self, g):
        g = self.check(g)
        return tuple((-a) % m for a, m in zip(g, self.moduli))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements exactly once, in lexicographic order.

        This is the canonical tie-breaking order used by every greedy search.
        """
        check_enumeration(self.order)
        return list(itertools.product(*(range(m) for m in self.moduli)))

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Row-major place values: the product of the moduli after each axis
        (computed once per group; not a field, so equality is untouched)."""
        return tuple(prod(self.moduli[i + 1 :]) for i in range(len(self.moduli)))

    @cached_property
    def _repeats(self) -> tuple[int, ...]:
        """Per axis, the mask of the cells whose coordinates on it and on
        every later axis are 0: bit t * m * s for each t, with stride s."""
        full = (1 << self.order) - 1
        return tuple(full // ((1 << m * s) - 1) for m, s in zip(self.moduli, self.strides))

    def index(self, g) -> int:
        """The position of g in elements(); g is validated as by check."""
        return sum(c * s for c, s in zip(self.check(g), self.strides))

    def element(self, i: int) -> tuple[int, ...]:
        """The element at position i of elements(), for 0 <= i < order."""
        return tuple(i // s % m for s, m in zip(self.strides, self.moduli))

    def shift(self, mask: int, k) -> int:
        """The mask of X + k for the subset X with mask `mask`, for any integer
        tuple k (reduced mod the moduli). On an axis with modulus m, stride s
        and c = k_a mod m, lo holds the cells with coordinate < m - c: they
        move up by c * s bits, and the rest wrap down by (m - c) * s."""
        k = _as_int_tuple(k, len(self.moduli), "shift")
        for c, m, s, rep in zip(k, self.moduli, self.strides, self._repeats):
            c %= m
            up = (m - c) * s
            lo = (rep << up) - rep  # rep * (2^up - 1): the first m - c cells of every run
            mask = (mask & lo) << c * s | (mask & ~lo) >> up
        return mask

    def translates(self, mask: int) -> list[int]:
        """[shift(mask, g) for g in elements()]: every shift of the masks so
        far along one axis after another, so the list comes out row-major."""
        check_enumeration(self.order)
        out = [mask]
        for m, s, rep in zip(self.moduli, self.strides, self._repeats):
            cuts = [((rep << (m - c) * s) - rep, c * s, (m - c) * s) for c in range(m)]
            out = [(x & lo) << up | (x & ~lo) >> down for x in out for lo, up, down in cuts]
        return out

    def translate(self, k) -> list[int]:
        """[index(e + k) for e in elements()], for any integer tuple k (reduced
        mod the moduli): the row-major sums of one list per axis, its shifted
        coordinates times its stride; shift is the same map on masks."""
        k = _as_int_tuple(k, len(self.moduli), "shift")
        check_enumeration(self.order)
        out = [0]
        for c, m, s in zip(k, self.moduli, self.strides):
            axis = [(i + c) % m * s for i in range(m)]
            out = [o + a for o in out for a in axis]
        return out

    def _translate_at(self, k, at) -> list[int]:
        """[index(element(i) + k) for i in at] by index arithmetic, for a k
        that is already a sequence of ints, one per axis (no validation:
        translate validates k, and the kernels pass elements and negated
        elements of this group); on the last axis, of stride 1, that is
        (i + c) mod its modulus."""
        if not self.moduli:
            return [0] * len(at)
        c, m = k[-1], self.moduli[-1]
        out = [(i + c) % m for i in at]
        for c, m, s in zip(k, self.moduli[:-1], self.strides):
            out = [o + (i // s + c) % m * s for o, i in zip(out, at)]
        return out


@dataclass(frozen=True)
class RealLine:
    """The real line; group arithmetic is exact rational arithmetic."""

    def check(self, g) -> Fraction:
        if isinstance(g, Fraction):
            return g
        if isinstance(g, int) and not isinstance(g, bool):
            return Fraction(g)
        if isinstance(g, str):
            return rat(g)
        raise ShapeMismatchError(f"{g!r} is not an exact rational")

    def check_points(self, points, shape):  # no int-tuple shape on the line
        return [self.check(p) for p in points]

    def zero(self) -> Fraction:
        return Fraction(0)

    def add(self, g, h):
        return self.check(g) + self.check(h)

    def negate(self, g):
        return -self.check(g)


@dataclass(frozen=True)
class SigmaFiniteChain:
    """Direct sum of Z_{m_i}, materialized to depth n = len(moduli).

    The chain subgroup H_n consists of the elements supported on the first n
    coordinates. Elements are finitely supported tuples with trailing zeros
    stripped, so representations are canonical across depths.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        if len(self.moduli) < 1 or any(not isinstance(m, int) or m < 2 for m in self.moduli):
            raise PreconditionError("chain moduli must be a nonempty list of integers >= 2")

    @property
    def depth(self) -> int:
        return len(self.moduli)

    def check(self, g) -> tuple[int, ...]:
        if not isinstance(g, (tuple, list)):
            raise ShapeMismatchError(f"{g!r} is not a chain element")
        g = tuple(g)
        if len(g) > self.depth:
            raise ShapeMismatchError(
                f"{g!r} has support beyond the materialized depth {self.depth}"
            )
        if any(not isinstance(c, int) or not (0 <= c < m) for c, m in zip(g, self.moduli)):
            raise ShapeMismatchError(f"{g!r} has coordinates outside the moduli")
        return _strip(g)

    def check_points(self, points, shape):  # chain elements vary in length
        return [self.check(p) for p in points]

    def zero(self) -> tuple[int, ...]:
        return ()

    def add(self, g, h):
        g, h = self.pad(g, self.depth), self.pad(h, self.depth)
        return _strip(tuple((a + b) % m for a, b, m in zip(g, h, self.moduli)))

    def negate(self, g):
        g = self.check(g)
        return _strip(tuple((-c) % self.moduli[i] for i, c in enumerate(g)))

    def pad(self, g, n: int) -> tuple[int, ...]:
        g = self.check(g)
        return g + (0,) * (n - len(g))

    def subgroup_order(self, n: int) -> int:
        self._check_depth(n)
        return prod(self.moduli[:n])

    def subgroup(self, n: int) -> FiniteAbelian:
        self._check_depth(n)
        return FiniteAbelian(self.moduli[:n])

    def in_subgroup(self, g, n: int) -> bool:
        return len(self.check(g)) <= n

    def _check_depth(self, n: int):
        if not (1 <= n <= self.depth):
            raise CapExceededError(
                f"depth {n} outside the materialized chain (1..{self.depth})"
            )


def _strip(g: tuple[int, ...]) -> tuple[int, ...]:
    end = len(g)
    while end > 0 and g[end - 1] == 0:
        end -= 1
    return g[:end]


def mask_of(indices) -> int:
    """The int whose set bits are the given indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits(mask: int) -> list[int]:
    """The set bits of mask, ascending: one str.find scan of bin(mask), linear
    in its length, with one Python step per set bit."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


GroupSpec = Union[ZLattice, FiniteAbelian, RealLine, SigmaFiniteChain]


def moduli_factorizations(n: int) -> list[tuple[int, ...]]:
    """All multisets of integers >= 2 with product n, ascending, n=1 gives ()."""
    if n < 1:
        raise PreconditionError("order must be >= 1")
    if n == 1:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, min_factor: int, acc: tuple[int, ...]):
        f = min_factor
        while f * f <= remaining:
            if remaining % f == 0:
                rec(remaining // f, f, acc + (f,))
            f += 1
        if remaining >= min_factor:
            out.append(acc + (remaining,))

    rec(n, 2, ())
    return sorted(out)


def all_finite_abelian_up_to(max_order: int) -> list[FiniteAbelian]:
    """Every moduli presentation of every abelian group of order <= max_order."""
    groups = []
    for n in range(1, max_order + 1):
        for moduli in moduli_factorizations(n):
            groups.append(FiniteAbelian(moduli))
    return groups

"""Default parameters, echoed into every report for reproducibility."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, PreconditionError


@dataclass(frozen=True)
class EstimationParams:
    """Radii r0 * 2^k (k <= k_max) of the window profile, which stops once a
    ratio is within relative tolerance tol of the previous one."""

    tol: Fraction = Fraction(1, 1000)
    r0: Fraction = Fraction(8)
    k_max: int = 12

    def __post_init__(self):
        if self.tol < 0:
            raise PreconditionError(f"window schedule needs tol >= 0, got {self.tol}")
        if self.r0 <= 0:
            raise PreconditionError(f"window schedule needs r0 > 0, got {self.r0}")
        if self.k_max < 0:
            raise PreconditionError(f"window schedule needs k_max >= 0, got {self.k_max}")


@dataclass(frozen=True)
class Caps:
    oracle_order: int = 8          # inf-sup oracle group-order cap
    enumeration: int = 1 << 20     # cap of every enumeration: elements, cells, oracle pairs
    exact_cover_cells: int = 20    # exhaustive minimum-cover search cap


DEFAULT_ESTIMATION = EstimationParams()
DEFAULT_CAPS = Caps()


def check_enumeration(
    count: int,
    message: str = "group order {count} exceeds enumeration cap {cap}",
    cap: int = DEFAULT_CAPS.enumeration,
):
    """Refuse an enumeration of count items over the cap before anything is
    allocated: CapExceededError with the message, count and cap filled in."""
    if count > cap:
        raise CapExceededError(message.format(count=count, cap=cap))

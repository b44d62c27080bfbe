"""Default parameters, echoed into every report for reproducibility."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


@dataclass(frozen=True)
class EstimationParams:
    """Radii r0 * 2^k (k <= k_max) of the window profile, which stops once a
    ratio is within relative tolerance tol of the previous one."""

    tol: Fraction = Fraction(1, 1000)
    r0: Fraction = Fraction(8)
    k_max: int = 12

    def __post_init__(self):
        if self.r0 <= 0:
            raise PreconditionError(f"window schedule needs r0 > 0, got {self.r0}")
        if self.k_max < 0:
            raise PreconditionError(f"window schedule needs k_max >= 0, got {self.k_max}")


@dataclass(frozen=True)
class Caps:
    oracle_order: int = 8          # inf-sup oracle group-order cap
    oracle_warn_above: int = 10    # runtime warning threshold when the cap is raised
    enumeration: int = 1 << 20     # finite-group element enumeration cap
    exact_cover_cells: int = 20    # exhaustive minimum-cover search cap


DEFAULT_ESTIMATION = EstimationParams()
DEFAULT_CAPS = Caps()

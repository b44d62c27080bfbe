"""The density functionals: classical, window, Kahane (compact test sets),
finite-test-set, and chain densities, plus the translation witness and the
neighborhood-growth window construction.

On Z^d and the line every measure the layer walker accepts is periodic plus a
finite part, so the window density is an exact closed form: the periodic mean
(a finite mass M adds at most M/|rK| -> 0), or a certified Infinite on an
accumulation marker. Finite-radius sup ratios are kept as labelled evidence
(window_density_profile, window_profile_schedule), never as the value. An
exact branch-and-bound inf-sup oracle, with the witnesses a full enumeration
of every nonempty (C, V) pair returns, is available for small finite groups.
It accepts a pair only at the ratio nu(G)/|G| that C = G attains, so its
value is the closed form by construction: no independent check of the value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import prod
from operator import mul
from typing import Optional, Union

from .config import DEFAULT_CAPS, DEFAULT_ESTIMATION, EstimationParams, check_enumeration
from .errors import CapExceededError, PreconditionError, VerificationError
from .groups import FiniteAbelian, GroupSpec, RealLine, SigmaFiniteChain, ZLattice, bits
from .intervals import IntervalUnion
from .rational import Infinite, common_scale, is_infinite, rat, rat_str
from .sets import CylinderSet, ExplicitFinite, PeriodicDiscrete
from .windows import (
    TraceLayer,
    measure_layers,
    real_shift_sup,
    real_threshold_witness,
    zd_shift_sup,
    zd_threshold_witness,
)

# ---------------------------------------------------------------------------
# window shapes


@dataclass(frozen=True)
class CenteredCube:
    """Cubes of side 2r+1 in Z^d; the reference window for lattices."""


@dataclass(frozen=True)
class IntervalWindow:
    """Intervals [x-r, x+r] on the line, normalizing by 2r."""


@dataclass(frozen=True)
class CustomK:
    """A unit-measure interval union K, scanned as rK + x and normalized by r."""

    shape: IntervalUnion

    def __post_init__(self):
        if self.shape.length != 1:
            raise PreconditionError("custom window shapes must have total length 1")


WindowShape = Union[CenteredCube, IntervalWindow, CustomK]


def _scan_window(K: WindowShape, r: Fraction):
    """(window object, normalizer |rK|) for the scan radius r."""
    if isinstance(K, CenteredCube):
        if not isinstance(r, int):
            if isinstance(r, Fraction) and r.denominator == 1:
                r = int(r)
            else:
                raise PreconditionError("cube radii must be integers")
        if r < 0:
            raise PreconditionError("cube radii must be nonnegative")
        return r, None
    r = rat(r)
    if r <= 0:
        raise PreconditionError("line window radii must be positive")
    if isinstance(K, IntervalWindow):
        return IntervalUnion.closed(-r, r), 2 * r
    return K.shape.scale(r), r


def default_window(group: GroupSpec) -> WindowShape:
    if isinstance(group, ZLattice):
        return CenteredCube()
    if isinstance(group, RealLine):
        return IntervalWindow()
    raise PreconditionError("window scans run on Z^d or the real line")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Witness:
    """Re-evaluatable evidence for a reported value."""

    kind: str
    data: tuple


@dataclass(frozen=True)
class DensityReport:
    notion: str
    value: Union[Fraction, Infinite]
    method: str  # closed-form | branch-and-bound | certified-lower-bound
    witness: Optional[Witness] = None
    annotations: tuple[str, ...] = ()
    settings: tuple[tuple[str, str], ...] = ()

    @property
    def exact(self) -> Fraction:
        if isinstance(self.value, Fraction):
            return self.value
        raise PreconditionError(f"report value is not an exact rational: {self.value!r}")

    @property
    def is_infinite(self) -> bool:
        return is_infinite(self.value)


# ---------------------------------------------------------------------------
# exact closed forms


def measure_total_finite(nu, group: FiniteAbelian) -> Fraction:
    """Total mass on a finite group."""
    layers, _ = measure_layers(nu, group)
    return sum((w for l in layers for _, w in l.atoms), Fraction(0))


def _closed_form(nu, group: GroupSpec) -> tuple[Union[Fraction, Infinite], str]:
    """(exact window density, how it arises) from one walk of nu."""
    if not isinstance(group, (RealLine, ZLattice)):
        raise PreconditionError("closed forms run on Z^d or the real line")
    layers, acc = measure_layers(nu, group)
    if acc:
        return (
            Infinite(("accumulation", acc[0])),
            "accumulating configuration: every positive-length window has infinite mass",
        )
    periodic = [l for l in layers if l.period is not None]
    total = Fraction(0)
    for l in periodic:
        if isinstance(l, TraceLayer):
            mass = l.periodic.mass
        else:
            mass = sum((w for _, w in l.atoms), Fraction(0))
        total += mass / (prod(l.period) if isinstance(l.period, tuple) else l.period)
    if not periodic:
        return total, "finite support: density 0 in the limit"
    if len(periodic) == len(layers):
        return total, "fully periodic instance: exact mean mass per period"
    return total, "finitely perturbed periodic: the finite part adds at most M/|rK| -> 0"


def periodic_mean_density(nu, group: GroupSpec) -> Union[Fraction, Infinite]:
    """The exact window density on Z^d or the line, for every window shape K:
    the sum over the periodic layers of mass/period, the finite layers adding
    0 (their total mass M adds at most M/|rK| -> 0); Infinite with a
    certificate for accumulating counting measures."""
    return _closed_form(nu, group)[0]


# ---------------------------------------------------------------------------
# window profiles and the window density


def window_density_profile(nu, group: GroupSpec, K: WindowShape, radii):
    """Exact sup ratios (r, sup_x nu(rK+x) / |rK|, least maximizing x).

    The sup over shifts is computed by event-point enumeration: over one period
    for periodic instances, over the support's bounding box otherwise. Entries
    are Infinite when the window can trap an accumulation marker.
    """
    out = []
    for r in radii:
        if isinstance(group, ZLattice):
            if not isinstance(K, CenteredCube):
                raise PreconditionError("lattice scans use the centered-cube window")
            window, _ = _scan_window(K, r)
            scan = zd_shift_sup(nu, group, window)
            normalizer = Fraction((2 * window + 1) ** group.dimension)
        else:
            if isinstance(K, CenteredCube):
                raise PreconditionError("cube windows apply to lattices only")
            window, normalizer = _scan_window(K, r)
            scan = real_shift_sup(nu, window)
        if is_infinite(scan.value):
            out.append((rat(r), scan.value, scan.argmax))
        else:
            out.append((rat(r), scan.value / normalizer, scan.argmax))
    return out


def window_profile_schedule(
    nu,
    group: GroupSpec,
    K: Optional[WindowShape] = None,
    params: EstimationParams = DEFAULT_ESTIMATION,
):
    """Finite-radius evidence for the window density: window_density_profile
    rows (r, ratio, least argmax) at r = r0 * 2^k for k <= k_max, stopping
    after the first ratio within relative tol of the previous one, or at an
    Infinite ratio. The rows are evidence, never the value."""
    K = K or default_window(group)
    rows = []
    for k in range(params.k_max + 1):
        (row,) = window_density_profile(nu, group, K, [params.r0 * 2**k])
        rows.append(row)
        ratio = row[1]
        if is_infinite(ratio):
            break
        if len(rows) > 1:
            scale = max(abs(ratio), Fraction(1, 10**12))
            if abs(ratio - rows[-2][1]) / scale < params.tol:
                break
    return rows


def auud_window(nu, group: GroupSpec) -> DensityReport:
    """Asymptotic uniform upper density through growing windows rK + x, for
    every window shape K: the exact closed form of periodic_mean_density."""
    value, note = _closed_form(nu, group)
    return DensityReport(notion="window", value=value, method="closed-form", annotations=(note,))


# ---------------------------------------------------------------------------
# classical upper density on Z


def classical_upper_density(A, group: ZLattice) -> DensityReport:
    """limsup of #(A cap [1, n]) / n for subsets of Z (or N)."""
    if not isinstance(group, ZLattice) or group.dimension != 1:
        raise PreconditionError("the classical upper density runs on Z")
    if isinstance(A, PeriodicDiscrete):
        if A.dimension != 1:
            raise PreconditionError("the classical upper density runs on Z")
        value = Fraction(len(A.residues), A.period[0])
        return DensityReport(
            notion="classical",
            value=value,
            method="closed-form",
            annotations=("each residue class meets [1, n] in n/period + O(1) points",),
        )
    if isinstance(A, ExplicitFinite):
        pts = sorted(p for (p,) in group.check_points(A.elements, A._shape))
        schedule = [
            f"n={n}: {rat_str(Fraction(sum(1 for p in pts if 1 <= p <= n), n))}"
            for n in (10, 100, 1000, 10_000)
        ]
        return DensityReport(
            notion="classical",
            value=Fraction(0),
            method="closed-form",
            annotations=(
                "finite set: the counts stop growing, the limit is 0",
                "schedule " + ", ".join(schedule),
            ),
        )
    raise PreconditionError(f"unsupported set for the classical density: {type(A).__name__}")


# ---------------------------------------------------------------------------
# exact inf-sup oracle on small finite groups


def _leader_sums(group: FiniteAbelian):
    """(elements, sums): sums(C) lists the mask of C + V for every mask V, one
    doubling pass over the masks C + g (translates). The search evaluates up
    to (2^n - 1)^2 (C, V) ratios, held to the enumeration cap (n <= 10)
    before anything is allocated."""
    n = group.order
    pairs = (2 ** min(n, 64) - 1) ** 2  # past n = 64 it is over any cap in use
    check_enumeration(pairs, f"the inf-sup oracle on order {n}: (2^{n} - 1)^2 (C, V) pairs "
                             "exceed the enumeration cap {cap}")
    elems = group.elements()

    def sums(C):
        union = [0]
        for t in group.translates(C):
            union += [u | t for u in union]
        return union

    return elems, sums


def _point_masses(nu, group: FiniteAbelian):
    """(D, masses): the mass of each element index as an int over D, the lcm
    of the atoms' weight denominators (one common_scale, then int sums)."""
    atoms = [a for layer in measure_layers(nu, group)[0] for a in layer.atoms]
    D, weights = common_scale(w for _, w in atoms)
    masses, strides = [0] * group.order, group.strides
    for (p, _), w in zip(atoms, weights):  # checked by measure_layers: index by the strides
        masses[sum(map(mul, p, strides))] += w
    return D, masses


def kahane_oracle_finite(nu, group: FiniteAbelian, cap: int = DEFAULT_CAPS.oracle_order):
    """Exact inf over nonempty C of sup over nonempty V of nu(V)/#(C+V), by
    branch-and-bound over one C per translation class against the bound
    nu(G)/|G| that C = G attains (see _inf_sup), on int point masses. Only
    the leaders it scans get their sum masks (_leader_sums).

    Returns (value, witness C, witness V): C is the first minimizer and V its
    least maximizer in mask order, the pair a full enumeration of every
    (C, V) pair returns.
    """
    n = group.order
    if n > cap:
        raise CapExceededError(f"group order {n} exceeds the oracle cap {cap}")
    elems, sums = _leader_sums(group)
    D, masses = _point_masses(nu, group)
    nu_of = [0]
    for w in masses:
        nu_of += [x + w for x in nu_of]
    num, den, C, V = _inf_sup(nu_of, sums)
    witness_c, witness_v = (ExplicitFinite(tuple(elems[i] for i in bits(m))) for m in (C, V))
    return Fraction(num, D * den), witness_c, witness_v


def _inf_sup(nu_of, sums):
    """(num, den, C, V) with num/den the inf over nonempty masks C of the sup
    over nonempty masks V of nu_of[V]/#(C+V), C the first minimizer and V its
    least maximizer in mask order. nu_of is nonnegative; sums(C) lists the
    mask of C + V for every mask V, and is only read.

    The search is exact. V = G gives every C the ratio nu(G)/|G|, and C = G
    attains it (#(G+V) = |G|), so the inf is nu(G)/|G| and C is the first
    mask with no V above it. #((C+g)+V) = #(C+V), so the translates of C
    share its sup and that C is the least mask of its translation class:
    only that leader gets its sums, and it marks its class (the sums of the
    V = {g}) seen. A leader is dropped at the first V with nu(V)/#(C+V) >
    nu(G)/|G|. Two counting bounds follow from #(C+V) >= max(|C|, |V|). An
    atom v with nu(v)/|C| above nu(G)/|G| drops C and every translate of it
    (they have |C| elements too), so such a C is skipped unscanned. A V with
    nu(V)/|V| below nu(G)/|G| can neither drop a leader nor tie, so the pass
    skips it. The V that dropped the last scanned leader is tried first;
    then one pass over V in decreasing nu(V) ends at nu(V) < |C| nu(G)/|G|,
    keeping the least V of ratio nu(G)/|G|. Which V drops a leader does not
    change the result. The first leader not dropped is returned.
    """
    size = len(nu_of)
    top, n = nu_of[size - 1], (size - 1).bit_count()
    atom = max(nu_of[1 << i] for i in range(n))
    by_nu = sorted(range(1, size), key=nu_of.__getitem__, reverse=True)
    seen = bytearray(size)
    killer = size - 1  # V = G drops no C
    for C in range(1, size):
        if seen[C] or atom * n > top * C.bit_count():
            continue
        union = sums(C)  # union[V]: the mask of C + V
        for i in range(n):
            seen[union[1 << i]] = 1
        if nu_of[killer] * n > top * union[killer].bit_count():
            continue
        least = top * C.bit_count()
        sup_den, sup_V = n, size - 1
        for V in by_nu:
            num = nu_of[V] * n
            if num < least:
                break
            if num < top * V.bit_count():
                continue
            den = union[V].bit_count()
            if num > top * den:
                killer, sup_V = V, 0  # C is dropped
                break
            if num == top * den and V < sup_V:
                sup_den, sup_V = den, V
        if sup_V:
            return nu_of[sup_V], sup_den, C, sup_V


def oracle_counting_sweep(group: FiniteAbelian):
    """Verify, for EVERY subset A, that the exact inf-sup equals |A|/|G| and
    that its witness C attains it: a plain scan of every nonempty V, with
    none of the search's cuts, looks for a V with |A cap V|/#(C+V) above
    |A|/|G|, C+V read from the sum masks of C. The 2^n searches share
    their leaders, so each leader's sum masks are formed once per call.

    Returns the list of mismatches (group, A, got, expected, C, V), V the
    first V above the bound or None (empty on success), and the subset count.
    """
    n = group.order
    sums = cache(_leader_sums(group)[1])  # the 2^n searches share leaders
    size = 1 << n
    mismatches = []
    for A in range(size):
        nu_of = [(A & V).bit_count() for V in range(size)]
        num, den, C, _ = _inf_sup(nu_of, sums)
        got = Fraction(num, den)
        top = A.bit_count()
        expect = Fraction(top, n)
        CV = sums(C)  # CV[V]: the mask of C + V
        above = next((V for V in range(1, size) if nu_of[V] * n > top * CV[V].bit_count()), None)
        if got != expect or above is not None:
            mismatches.append((group, A, got, expect, C, above))
    return mismatches, size


# ---------------------------------------------------------------------------
# the Kahane density (compact test sets) per group family


def kahane_density_finite_group(
    nu,
    group: FiniteAbelian,
    mode: str = "closed-form",
    cap: int = DEFAULT_CAPS.oracle_order,
) -> DensityReport:
    """On a finite group the inf-sup collapses to nu(G)/|G|: taking C = G
    forces every denominator to |G| and V = G attains the sup, while any C
    admits V = G. Oracle mode adds the witnesses a full enumeration returns,
    by an exact branch-and-bound over the (C, V) pairs. Its value is
    nu(G)/|G| by construction (_inf_sup accepts a pair only at that ratio),
    so the comparison below cannot fail; the tests' full enumeration checks
    the witness pair."""
    if group.order == 0:
        raise PreconditionError("empty group")
    total = measure_total_finite(nu, group)
    closed = total / group.order
    if mode == "closed-form":
        return DensityReport(
            notion="kahane",
            value=closed,
            method="closed-form",
            annotations=("nu(G)/|G| on a finite group",),
        )
    if mode != "oracle":
        raise PreconditionError(f"unknown mode {mode!r}")
    value, wc, wv = kahane_oracle_finite(nu, group, cap=cap)
    if value != closed:
        raise VerificationError(
            "oracle disagrees with the closed form", counterexample=(group, nu, wc, wv)
        )
    return DensityReport(
        notion="kahane",
        value=value,
        method="branch-and-bound",
        witness=Witness("pair", (wc, wv)),
        annotations=(
            "exact inf-sup: C is the first translation-class leader with no V above "
            "nu(G)/|G|, V its least maximizer",
        ),
    )


def kahane_density(nu, group: GroupSpec) -> DensityReport:
    """The compact-test-set density on Z^d or R, computed through its
    window-equivalent form."""
    report = auud_window(nu, group)
    return replace(
        report, notion="kahane", annotations=report.annotations + ("window-equivalent form",)
    )


# ---------------------------------------------------------------------------
# the finite-test-set density


# (eta, 1/eta) for the widths eta = 10^-j, j <= 7, of the certificate's shrinking V
_ETA_SCHEDULE = tuple((Fraction(1, 10**j), Fraction(10**j)) for j in range(8))


def delta_density(
    nu,
    group: GroupSpec,
    mode: str = "closed-form",
    cap: int = DEFAULT_CAPS.oracle_order,
) -> DensityReport:
    """The density with the infimum restricted to finite test sets.

    On discrete groups finite sets are exactly the compact sets, so the value
    coincides with the Kahane density. On the real line any measure with an
    atom reports Infinite: shrinking V around the atom makes nu(V)/mu(F+V)
    at least w/(#F eta) for every finite F, with the eta schedule attached as
    the certificate. Atomless traces report the Kahane value as a certified
    lower bound.
    """
    discrete = "finite test sets = compact test sets on a discrete group"
    if isinstance(group, FiniteAbelian):
        base = kahane_density_finite_group(nu, group, mode=mode, cap=cap)
        return replace(base, notion="delta", annotations=base.annotations + (discrete,))
    if isinstance(group, SigmaFiniteChain):
        raise PreconditionError("use hegyvari_density for chain instances")
    if isinstance(group, ZLattice):
        base = kahane_density(nu, group)
        return replace(base, notion="delta", annotations=base.annotations + (discrete,))
    if isinstance(group, RealLine):
        atom = _first_atom(*measure_layers(nu, group))
        if atom is not None:
            point, weight = atom
            return DensityReport(
                notion="delta",
                value=Infinite(
                    (
                        "diverging-schedule",
                        point,
                        weight,
                        _ETA_SCHEDULE,
                        "nu(V)/mu(F+V) >= weight/(#F * eta) for V = [point-eta/2, point+eta/2]",
                    )
                ),
                method="certified-lower-bound",
                annotations=(
                    "an atom makes the finite-test-set density infinite on a non-discrete group",
                ),
            )
        base = kahane_density(nu, group)
        return replace(
            base,
            notion="delta",
            method="certified-lower-bound",
            annotations=base.annotations
            + ("lower bound: the finite-test-set density dominates the compact-test-set density",),
        )
    raise PreconditionError(f"unsupported group: {type(group).__name__}")


def _first_atom(layers, acc):
    for l in layers:
        if hasattr(l, "atoms"):
            for p, w in l.atoms:
                if w > 0:
                    return p, w
    if acc:
        return acc[0].point, Fraction(1)
    return None


# ---------------------------------------------------------------------------
# chain density


def hegyvari_density(A, chain: SigmaFiniteChain, n_max: Optional[int] = None) -> DensityReport:
    """limsup of #(A cap H_n)/#H_n along the materialized chain.

    Cylinder sets have an exact limit (the ratio is constant beyond the
    cylinder depth); explicit finite sets have limit 0.
    """
    n_max = chain.depth if n_max is None else n_max
    if not (1 <= n_max <= chain.depth):
        raise CapExceededError(f"depth {n_max} outside the materialized chain")
    schedule = []
    if isinstance(A, CylinderSet):
        A.validate_for(chain)
        for n in range(1, n_max + 1):
            schedule.append(
                (Fraction(n), Fraction(A.count_in_subgroup(chain, n), chain.subgroup_order(n)))
            )
        if n_max >= A.depth:
            value = schedule[-1][1]
        else:
            value = Fraction(A.count_in_subgroup(chain, A.depth), chain.subgroup_order(A.depth))
        return DensityReport(
            notion="hegyvari",
            value=value,
            method="closed-form",
            annotations=(
                "cylinder set: the ratio is constant beyond the determining depth",
                "schedule " + ", ".join(f"H_{int(n)}: {rat_str(v)}" for n, v in schedule),
            ),
        )
    if isinstance(A, ExplicitFinite):
        for n in range(1, n_max + 1):
            count = sum(1 for e in A.elements if chain.in_subgroup(e, n))
            schedule.append((Fraction(n), Fraction(count, chain.subgroup_order(n))))
        return DensityReport(
            notion="hegyvari",
            value=Fraction(0),
            method="closed-form",
            annotations=(
                "finite set: the counts are bounded while #H_n grows, the limit is 0",
                "schedule " + ", ".join(f"H_{int(n)}: {rat_str(v)}" for n, v in schedule),
            ),
        )
    raise PreconditionError(f"unsupported chain set: {type(A).__name__}")


# ---------------------------------------------------------------------------
# translation witness


@dataclass(frozen=True)
class NotFound:
    scanned_sup: Fraction
    argmax: object


def translation_witness(nu, group: GroupSpec, W, gamma) -> Union[Fraction, tuple, NotFound]:
    """A shift x with nu(W + x) >= gamma * mu(W), or NotFound with the scanned sup.

    The scan terminates because the instance is periodic or has finite support;
    the returned x is the least event point reaching the threshold, and
    NotFound.argmax the least event point attaining the scanned sup. On Z
    they are those of the same integer data on the line, W one point piece
    per offset.
    """
    gamma = rat(gamma)
    if isinstance(group, RealLine):
        if not isinstance(W, IntervalUnion):
            raise PreconditionError("line windows are interval unions")
        found, scan = real_threshold_witness(nu, W, gamma * W.length)
    elif isinstance(group, ZLattice):
        if not isinstance(W, ExplicitFinite):
            raise PreconditionError("lattice windows are explicit finite sets")
        found, scan = zd_threshold_witness(nu, group, W, gamma * len(W.elements))
    else:
        raise PreconditionError(f"translation witness unsupported on {type(group).__name__}")
    return NotFound(scan.value, scan.argmax) if found is None else found


# ---------------------------------------------------------------------------
# the neighborhood-growth window (compact set absorbed by a large symmetric window)


@dataclass(frozen=True)
class RudinWindow:
    """W = [0, L] with V = W - W = [-L, L] and mu(C + V) < (1 + eps) mu(V),
    verified exactly; L is the minimal positive integer achieving it."""

    L: int
    W: object
    V: object
    mu_V: Fraction
    mu_CV: Fraction
    epsilon: Fraction
    tried: tuple[int, ...]


def rudin_window(C, epsilon, group: GroupSpec) -> RudinWindow:
    """Find the minimal integer L so the symmetric window V = [-L, L] grows by
    a factor below 1 + epsilon when fattened by the bounded set C.

    Always solvable: on the line mu(C+V) <= 2L + diam(C), so any
    L > diam(C) / (2 epsilon) works; the search doubles then bisects, and
    each probe is an int comparison on the gaps of C.
    """
    epsilon = rat(epsilon)
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    if isinstance(group, RealLine):
        if not isinstance(C, IntervalUnion):
            raise PreconditionError("line test sets are interval unions")
        ends, pad = C.endpoints(), 0

        def build(L: int):
            return IntervalUnion.closed(0, L), IntervalUnion.closed(-L, L)

    elif isinstance(group, ZLattice) and group.dimension == 1:
        if not isinstance(C, ExplicitFinite):
            raise PreconditionError("lattice test sets are explicit finite sets")
        ends = sorted(2 * [p for (p,) in group.check_points(C.elements, C._shape)])
        pad = 1  # the points as [p, p]

        def build(L: int):
            return (
                ExplicitFinite(tuple((i,) for i in range(L + 1))),
                ExplicitFinite(tuple((i,) for i in range(-L, L + 1))),
            )

    else:
        raise PreconditionError("the window construction runs on R or Z")

    # in ints over the lcm D of the denominators of epsilon and C, V = [-L, L]
    # has width w = 2LD on R and, counting its 2L + 1 points, 2LD + D on Z;
    # C + V closes every gap of C up to w, so
    # D mu(C + V) = span + w - sum of (g - w) over the gaps g > w:
    # one int comparison per probe
    D, (e, *ends) = common_scale((epsilon, *ends))
    span = ends[-1] - ends[0] if ends else 0
    gaps = [a - b for a, b in zip(ends[2::2], ends[1::2])]

    def check(L: int):
        w = (2 * L + pad) * D
        cv = span + w - sum(g - w for g in gaps if g > w)
        return cv * D < (D + e) * w, Fraction(w, D), Fraction(cv, D)

    tried = []
    L = 1
    ok, mu_v, mu_cv = check(L)
    tried.append(L)
    while not ok:
        L *= 2
        ok, mu_v, mu_cv = check(L)
        tried.append(L)
        if L > 1 << 62:
            raise VerificationError("window search diverged", counterexample=(C, epsilon))
    lo, hi = L // 2, L  # smallest failing known bound, current success
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok_mid, _, _ = check(mid)
        tried.append(mid)
        if ok_mid:
            hi = mid
        else:
            lo = mid
    ok, mu_v, mu_cv = check(hi)
    if not ok:
        raise VerificationError("window verification failed", counterexample=(C, epsilon, hi))
    W, V = build(hi)
    return RudinWindow(
        L=hi, W=W, V=V, mu_V=mu_v, mu_CV=mu_cv, epsilon=epsilon, tried=tuple(tried)
    )

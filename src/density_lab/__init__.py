"""Exact upper densities, difference sets, and syndetic covers on concrete
LCA groups: Z^d, finite abelian products, the real line, and sigma-finite
chains. All quantitative claims are verified by exact rational computation or
carry machine-checkable certificates."""

__version__ = "0.1.0"

from .additive import GapReport, SyndeticCertificate, TranslateCover, gap_analysis, minimal_translates, syndetic_check
from .config import DEFAULT_CAPS, DEFAULT_ESTIMATION, Caps, EstimationParams
from .density import (
    CenteredCube,
    CustomK,
    DensityReport,
    IntervalWindow,
    NotFound,
    RudinWindow,
    Witness,
    auud_window,
    classical_upper_density,
    delta_density,
    hegyvari_density,
    kahane_density,
    kahane_density_finite_group,
    kahane_oracle_finite,
    oracle_counting_sweep,
    periodic_mean_density,
    rudin_window,
    translation_witness,
    window_density_profile,
    window_profile_schedule,
)
from .errors import (
    CapExceededError,
    DensityLabError,
    InstanceParseError,
    PreconditionError,
    ShapeMismatchError,
    VerificationError,
)
from .groups import (
    FiniteAbelian,
    GroupSpec,
    RealLine,
    SigmaFiniteChain,
    ZLattice,
    all_finite_abelian_up_to,
    moduli_factorizations,
)
from .instances import Instance, canonical_json, instance_to_text, parse_instance, to_jsonable
from .intervals import IntervalUnion, PeriodicPattern
from .rational import INFINITE, Infinite, is_infinite, rat, rat_str
from .sets import (
    AccumulationPoint,
    Counting,
    CylinderSet,
    DiracAtZero,
    ExplicitFinite,
    FinitePoints,
    HaarTrace,
    MeasureSum,
    PeriodicDiscrete,
    PeriodicPoints,
    PerturbedLattice,
    WeightedDiracs,
    WindowedDifferenceSet,
    difference_set,
    haar,
    minkowski_sum,
    translate_measure,
    translate_set,
)
from .structure import (
    AutoHResult,
    CoverResult,
    FattenResult,
    PackingCheck,
    PartitionResult,
    PipelineResult,
    SubadditivityCheck,
    auto_H,
    counting_density,
    fatten,
    greedy_translates,
    packing_bound_check,
    partition_by_coloring,
    subadditivity_check,
    syndetic_pipeline,
)
from .windows import real_mass, real_shift_sup, window_mass, zd_shift_sup

"""Symmetry structure of numerical semigroup gaps.

Numerical semigroups, semimodules over them with staircase-path closed
forms, Wilf numbers of gaps, the symmetric/self-symmetric gap sets with the
reconstruction game, fundamental gaps, and brute-force oracles for
differential verification of every closed form.
"""

from .errors import (
    Ambiguous,
    BoundTooSmall,
    EmptyInput,
    GapsymError,
    GcdNotOne,
    InconsistentInput,
    NotAGap,
    NotASemigroup,
    NotTwoGenerated,
    OutOfTriangle,
    PartitionViolation,
    PrincipalModule,
    XNotInGaps,
)
from .fundamental import (
    CountComparison,
    FundamentalGapSet,
    RedChecks,
    compare_counts,
    divisor_closure,
    fundamental_gaps,
    h_determines,
    red_equivalence,
    semigroup_from_fg,
)
from .oracle import (
    brute_dual,
    brute_h_determines,
    brute_syzygy,
    enumerate_lean_sets,
    enumerate_semigroups_by_genus,
)
from .semigroup import (
    NumericalSemigroup,
    TwoGen,
    gap_order_leq,
    make_semigroup,
)
from .semimodule import (
    GammaSemimodule,
    LeanCouple,
    PicardOrbit,
    delta_formula,
    dual,
    dual_generators,
    is_fixed_point,
    is_lean,
    is_selfdual,
    is_symmetric_sm,
    lattice_path,
    make_semimodule,
    picard_orbit,
    sm_conductor_formula,
    syzygy,
    syzygy_generators,
)
from .survey import CHECK_NAMES, CheckResult, coprime_pairs, run_survey
from .symmetry import (
    CardinalityReport,
    GapClass,
    GapPartition,
    border_transport,
    card_formulas,
    cell_values,
    gap_conductor_partition,
    gap_partition,
    infer_semigroup,
    reconstruct_from_symmetric,
    rectangle_cells,
    reflect_alpha,
    reflect_beta,
    right_border,
    self_symmetric_gaps,
    supersymmetric_gaps,
    translate_tau,
    triangle_r,
    triangle_u,
    wilf_grid,
)
from .wilf import (
    WilfReport,
    ZeroWilfChecks,
    wilf_gap,
    wilf_gap_formula,
    zero_wilf_equivalences,
    zero_wilf_survey_general,
)

__version__ = "0.1.0"

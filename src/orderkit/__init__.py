"""orderkit: exact arithmetic for orders in number fields.

Lattice normal forms, number-field arithmetic, orders and conductors,
fractional-ideal class monoids, ring-morphism structure counting on matrix
orders, and evaluators for the explicit height/count/isogeny bound formulas.
"""

from .errors import (
    BoundViolation,
    DegreeMismatch,
    FactorizationViolation,
    HypothesisViolated,
    IndexTooLarge,
    InvalidInput,
    MethodDisagreement,
    NeedsUserInput,
    NotClosed,
    NotContained,
    NotFreeModule,
    NotFullRank,
    NotMonic,
    NotPrime,
    NotSublattice,
    NotUnital,
    OrderkitError,
    OrderMismatch,
    RankDeficient,
    Reducible,
    SearchBudgetExceeded,
    UnsupportedDegree,
)
from .intmat import (
    IntMatrix,
    Lattice,
    enumerate_intermediate_lattices,
    hnf,
    hnf_basis,
    lattice_index,
    left_kernel,
    snf,
)
from .numberfield import (
    FieldElement,
    NumberField,
    RATIONAL_FIELD,
    embedding_count,
    make_field,
    normal_closure_degree,
)
from .orders import (
    Order,
    conductor,
    conductor_comparison_check,
    fundamental_unit,
    is_order,
    maximal_order,
    scaled_subring,
    torsion_units,
    unit_square_quotient,
)
from .ideals import (
    FractionalIdeal,
    IdealClass,
    ClassMonoid,
    class_monoid,
    colon_ideal,
    generated_ideal,
    ideal_product,
    intermediate_classes,
    is_equivalent,
    is_invertible,
    picard_group,
    principal_ideal,
    unit_ideal,
)
from .gamma_structures import (
    GammaStructure,
    MatrixOrder,
    RingMorphism,
    are_conjugate,
    compatibility_of,
    count_structures,
    quotient_size,
    structure_to_ideal_class,
    structures_from_ideal_classes,
    transfer_inequality_check,
)
from .bounds import (
    BigBound,
    SIntegerSpec,
    cor_p1n,
    es_gl2_bounds,
    level_structure_bounds,
    pol_degree_bound,
    thm_a_height,
    thm_b,
    thm_endobound,
    thm_main_count,
    thm_main_height,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

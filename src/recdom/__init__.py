"""recdom: exact lattice-point enumeration for reciprocal cone domains.

Pointed rational cones with both descriptions, truncated enumerators and
rational generating functions of the two reciprocal domains attached to a
facet selection, Reisner-style Cohen-Macaulay certificates for the removed
boundary part, strict-separation witnesses with line shellings, and
piecewise-linear lifting constructions, all over exact rational arithmetic.
"""

from .enumerator import (
    COMPLEMENT,
    SELECTED,
    BadGrading,
    BoxTooLarge,
    DomainSpec,
    FacetSelection,
    LaurentPoly,
    RationalGF,
    TruncatedSeries,
    WitnessSearchExhausted,
    default_grading,
    domain_gf,
    expand,
    gf_equal,
    gf_scale,
    invert_variables,
    lattice_points,
    reciprocity_check,
    simplicial_gf,
    specialize,
    triangulate,
    verify_colon_identity,
)
from .geometry import (
    GF2,
    QQ,
    Cone,
    FacetFunctional,
    Face,
    FieldSpec,
    InvariantViolation,
    NotFullDimensional,
    NotPointed,
    dual_description,
    faces_of,
    rank_over_field,
)
from .lifting import (
    Arrangement,
    AffineHyperplane,
    ArrangementDoesNotCover,
    LiftResult,
    SubcomplexTouchesAvoidedFacet,
    covering_arrangement,
    embedded_complex,
    induced_subdivision,
    lift,
    lift_height,
    schlegel,
    verify_embedding,
)
from .separation import (
    DegeneratePoint,
    SeparationResult,
    ShellingOrder,
    is_shelling_prefix,
    line_shelling,
    separation_witness,
    shelling_through_witness,
)
from .topology import (
    BoundaryInequalityReport,
    Cell,
    CMCertificate,
    DimensionTooHigh,
    FaceNotPresent,
    HomologyProfile,
    NotAManifold,
    PolyhedralComplex,
    SimplicialComplex,
    barycentric,
    boundary_inequality_check,
    boundary_subcomplex,
    cm_on_upper_intervals,
    is_cohen_macaulay,
    is_manifold_with_boundary,
    link,
    recognize_ball_sphere,
    reduced_homology,
)

__version__ = "0.1.0"

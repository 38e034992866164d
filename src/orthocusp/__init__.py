"""Exact combinatorial toolkit for right-angled hyperbolic polyhedra.

Combinatorial types are handled with exact arithmetic throughout:
realizability conditions for 3-polyhedra, face-average audits, exhaustive
enumeration of small cusped types, and the certified cusp-count lower
bounds for dimensions 6 through 12.
"""

from .core import (
    FaceLattice,
    Poly3Error,
    Polyhedron3,
    RIGHT_ANGLED_PROFILE,
    ValidationReport,
    canonical_code,
    contract_edge,
    dual,
    parse_poly3,
    to_face_lattice,
    to_poly3,
    validate,
)
from .andreev import (
    AngleError,
    ConditionReport,
    check_andreev,
    check_right_angled,
    parse_angles,
    prismatic_circuits,
    right_angles,
)
from .nikulin import (
    NikulinAudit,
    audit,
    check_small,
    compact_exclusion,
    face_average,
    nikulin_rhs,
)
from .cusplink import (
    CuspLink,
    averaging_contradiction,
    count_cusp_faces,
    faces_through_edge,
    is_adjacent,
    two_cusp_faces,
    verify_table,
)
from .enum3 import (
    EnumReport,
    EnumSpec,
    enumerate_types,
    two_cusp_minima,
    verify_lemma31,
)
from .bounds import (
    BoundsCertificate,
    lemma61,
    main_bounds,
    n7_certificate,
    n7_preform,
)

__version__ = "0.1.0"

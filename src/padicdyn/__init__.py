"""Exact p-adic ball/sphere groups, Haar measure, and isometry dynamics."""

from .dynamics import (
    CycleStructure,
    ErgodicityVerdict,
    IsometryCheck,
    OrbitRecord,
    RhoResult,
    certify_isometry,
    compute_rho,
    cycle_structure,
    derivative_norm,
    ergodicity_verdict,
    induced_cell_map,
    minimal_invariant_ball,
    orbit,
    verify_isometry,
)
from .geometry import (
    Ball,
    CellIndex,
    ClopenSet,
    Sphere,
    canonical_ball,
    cell_center,
    cell_count,
    clopen,
    contains,
    embed,
    locate_cell,
    sphere_cells,
    subdivide,
)
from .groups import (
    BallGroup,
    LawReport,
    SphereGroup,
    certified_equal,
    check_group_axioms,
    iso,
)
from .mapdsl import RationalMap, eval_map, make_map, parse_map, render_map
from .measure import (
    haar,
    haar_clopen,
    haar_sphere,
    invariance_check,
    normalized_measure,
    translate_clopen,
)
from .padic import DEFAULT_PRECISION, PAdic, equal_mod, from_rational, parse

__all__ = [
    "PAdic", "from_rational", "parse", "equal_mod", "DEFAULT_PRECISION",
    "Ball", "Sphere", "CellIndex", "ClopenSet", "embed", "canonical_ball",
    "contains", "sphere_cells", "locate_cell", "cell_center", "cell_count",
    "clopen", "subdivide",
    "BallGroup", "SphereGroup", "LawReport", "iso", "certified_equal",
    "check_group_axioms",
    "haar", "haar_sphere", "haar_clopen", "normalized_measure",
    "translate_clopen", "invariance_check",
    "RationalMap", "parse_map", "make_map", "render_map", "eval_map",
    "IsometryCheck", "RhoResult", "OrbitRecord", "CycleStructure",
    "ErgodicityVerdict", "certify_isometry", "verify_isometry", "compute_rho",
    "minimal_invariant_ball", "orbit", "derivative_norm", "induced_cell_map",
    "cycle_structure", "ergodicity_verdict",
]

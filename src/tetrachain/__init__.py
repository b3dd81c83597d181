"""Face-to-face chains of unit regular tetrahedra.

Builds reflection-string chains (tetrahelix, quadrahelix, octahelix, and a
540-tetrahedron closed loop), measures how far they are from perfect closure
with exact rational and arbitrary-precision metrics, certifies embeddedness,
and searches for nearly-closed chains via continued fractions and lattice
reduction.
"""

from .precision import RealCtx, reduce_theta_multiple, PrecisionError
from .bary import BaryMatrix, reflection_matrix, chain_matrix, divisibility_witness
from .geometry import Tetrahedron, RealizedChain, helix_vertex, invisible_t0, realize_chain
from .metrics import GapReport, gap_report, norm_gap
from .embedding import EmbeddingVerdict, verify_embedded, quadplane_determinant
from .search import Convergent, DioSolution, continued_fraction_convergents, babai_lll_search
from .motion import (
    RigidMotion,
    closed_form_gap,
    decompose_motion,
    gap_bound_qh,
    gap_bound_oh,
)

__version__ = "0.1.0"

__all__ = [
    "RealCtx",
    "reduce_theta_multiple",
    "PrecisionError",
    "BaryMatrix",
    "reflection_matrix",
    "chain_matrix",
    "divisibility_witness",
    "Tetrahedron",
    "RealizedChain",
    "helix_vertex",
    "invisible_t0",
    "realize_chain",
    "GapReport",
    "gap_report",
    "norm_gap",
    "EmbeddingVerdict",
    "verify_embedded",
    "quadplane_determinant",
    "Convergent",
    "DioSolution",
    "continued_fraction_convergents",
    "babai_lll_search",
    "RigidMotion",
    "closed_form_gap",
    "decompose_motion",
    "gap_bound_qh",
    "gap_bound_oh",
]

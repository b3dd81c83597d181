"""Face-to-face chains of unit regular tetrahedra.

Builds reflection-string chains (tetrahelix, quadrahelix, octahelix, and a
540-tetrahedron closed loop), measures how far they are from perfect closure
with exact rational and arbitrary-precision metrics, certifies embeddedness,
and searches for nearly-closed chains via continued fractions and lattice
reduction.

Each exported name is imported from its layer on first access (PEP 562), so
a process loads only the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = {
    "precision": "RealCtx reduce_theta_multiple PrecisionError",
    "bary": "BaryMatrix reflection_matrix chain_matrix divisibility_witness",
    "geometry": "Tetrahedron RealizedChain helix_vertex invisible_t0 realize_chain",
    "metrics": "GapReport gap_report norm_gap",
    "embedding": "EmbeddingVerdict verify_embedded quadplane_determinant",
    "search": "Convergent DioSolution continued_fraction_convergents babai_lll_search",
    "motion": "RigidMotion closed_form_gap decompose_motion gap_bound_qh gap_bound_oh",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value

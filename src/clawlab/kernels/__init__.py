"""Kernel backend selection.

The compiled extension ``_ckern`` is used when it imports; otherwise (it is
built only where Cython and a C compiler exist) the pure-Python reference
``pure`` is.  ``BACKEND`` names the choice.  Both backends implement the
same search orders, so results (including witnesses) are identical either
way; tests import ``clawlab.kernels.pure`` directly to compare them.
"""

_NAMES = (
    "max_clique",
    "color_with",
    "find_induced_embedding",
    "has_induced",
    "find_induced_cycle",
    "canon_form",
)


def _compiled():
    from clawlab.kernels import _ckern

    if not all(hasattr(_ckern, name) for name in _NAMES):
        raise ImportError("compiled kernel module is stale")
    return _ckern


try:
    _impl = _compiled()
    BACKEND = "c"
except ImportError:
    from clawlab.kernels import pure as _impl

    BACKEND = "pure"

max_clique = _impl.max_clique
color_with = _impl.color_with
find_induced_embedding = _impl.find_induced_embedding
has_induced = _impl.has_induced
find_induced_cycle = _impl.find_induced_cycle
canon_form = _impl.canon_form

__all__ = ["BACKEND", *_NAMES]

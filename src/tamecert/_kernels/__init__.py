"""The hot kernels, one NumPy implementation.

``import tamecert._kernels as K`` and call ``K.extract_factors`` etc.
``BACKEND``, the empty compiled-module slot below and ``backends()`` are
constants: ``perfbench`` reports the backend and wraps the kernels through
them.
"""

from . import _fallback as fallback
from ._fallback import (
    BACKEND,
    ball_bounds,
    distinct_projection_count,
    extract_factors,
    project_masks,
    window_oscillation,
)

speedups = None


def backends():
    """The kernel implementations as {name: module}: only the NumPy one."""
    return {"fallback": fallback}

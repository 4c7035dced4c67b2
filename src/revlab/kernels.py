"""Kernel selection: compiled extension when available, pure Python otherwise.

Set REVLAB_PURE_PYTHON=1 to force the fallback (used by the agreement
tests).
"""

from __future__ import annotations

import os

from ._kernels_py import (  # noqa: F401  (re-exported rule codes)
    ORDER_KEEP,
    ORDER_LEX,
    ORDER_NATURAL,
    SCOPE_DOC,
    SCOPE_KEEP,
    SCOPE_RESULT_ONLY,
)

if os.environ.get("REVLAB_PURE_PYTHON"):
    from . import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import _kernels_py as _impl

        BACKEND = "python"

min_mask = _impl.min_mask
revise_mask = _impl.revise_mask
bel_table = _impl.bel_table
posterior = _impl.posterior

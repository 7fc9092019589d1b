"""Kernel selection: compiled extension when present, pure Python otherwise.

The two kernels return identical bits (tests/test_kernel_backends.py), so
the choice changes speed, never a result.  The one difference is a limit:
the compiled kernel raises ValueError for a jet order above 31.

Set ``THETAKIT_PURE=1`` in the environment to force the pure-Python kernel
(used by the benchmark and by tests that compare the two backends).
"""

import os

_impl = None
if os.environ.get("THETAKIT_PURE") != "1":
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = None
if _impl is None:
    from . import _series_py as _impl

theta_sums = _impl.theta_sums
dedekind_sums = _impl.dedekind_sums
BACKEND = _impl.BACKEND

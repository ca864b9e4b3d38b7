"""The orthonormal DCT-II of the transformation layer, without ``scipy.fft``.

The transformation layer (Fig. 7) needs one transform from scipy: the
orthonormal DCT-II.  Importing ``scipy.fft`` to reach it costs more than
importing numpy (``scipy._lib``'s array-API shim pulls in ``numpy.f2py``,
and ``_fftlog`` pulls in ``scipy.special``).  This module instead loads
scipy's compiled pocketfft extension straight from scipy's install
directory — no scipy package ``__init__`` runs — and registers it in
:data:`sys.modules` under its canonical name, so a later ``import
scipy.fft`` reuses the same extension object.

:func:`dct_ortho` passes the extension the arguments
``scipy.fft.dct(x, type=2, norm="ortho", axis=axis)`` passes it, so the
result is the same C++ kernel on the same inputs: bit-identical.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType

import numpy as np

_NAME = "scipy.fft._pocketfft.pypocketfft"


def _load_kernel() -> ModuleType | None:
    """scipy's ``pypocketfft`` extension, or None if it is not where scipy keeps it."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy_spec = importlib.util.find_spec("scipy")
    for root in scipy_spec.submodule_search_locations if scipy_spec else ():
        finder = FileFinder(
            os.path.join(root, "fft", "_pocketfft"),
            (ExtensionFileLoader, EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(_NAME)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_NAME] = module
            spec.loader.exec_module(module)
            return module
    return None


_kernel = _load_kernel()


def dct_ortho(x: np.ndarray, axis: int, overwrite_x: bool = False) -> np.ndarray:
    """``scipy.fft.dct(x, type=2, norm="ortho", axis=axis, overwrite_x=overwrite_x)``.

    Type 2, ``inorm=1`` ("ortho"), one thread, and ``out=x`` when
    overwriting, on the float64 array the callers pass.
    """
    if _kernel is None:
        from scipy.fft import dct

        return dct(x, type=2, norm="ortho", axis=axis, overwrite_x=overwrite_x)
    return _kernel.dct(x, 2, (axis,), 1, x if overwrite_x else None, 1)

"""``dct_ortho`` is ``scipy.fft.dct(type=2, norm="ortho")``, bit for bit."""

import importlib.machinery
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

import repro
from repro.core import _pocketfft
from repro.core._pocketfft import dct_ortho

CASES = [
    ((64, 3, 1024), 2),
    ((1024, 3), 0),
    ((5, 3, 7), 0),
    ((5, 3, 7), 1),
    ((5, 3, 7), 2),
    ((2, 3, 1), 2),
    ((2, 3, 1), 0),
]


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.mark.parametrize("shape, axis", CASES)
@pytest.mark.parametrize("overwrite_x", [False, True])
def test_matches_scipy_bit_for_bit(shape, axis, overwrite_x):
    x = np.random.default_rng(sum(shape) + axis).standard_normal(shape)
    expected = scipy.fft.dct(x, type=2, norm="ortho", axis=axis)
    given = x.copy()
    got = dct_ortho(given, axis=axis, overwrite_x=overwrite_x)
    assert got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))
    if overwrite_x:
        assert got is given
    else:
        assert np.array_equal(bits(given), bits(x))


def test_non_contiguous_axis_matches_scipy():
    x = np.random.default_rng(1).standard_normal((1024, 3))[::2]
    expected = scipy.fft.dct(x, type=2, norm="ortho", axis=0)
    assert np.array_equal(bits(dct_ortho(x, axis=0)), bits(expected))


def test_scipy_fft_reuses_the_loaded_extension():
    assert sys.modules[_pocketfft._NAME] is _pocketfft._kernel
    assert scipy.fft._pocketfft.realtransforms.pfft is _pocketfft._kernel


@pytest.mark.parametrize("scipy_first", [False, True])
def test_one_extension_object_in_either_import_order(scipy_first):
    probe = (
        "import sys\n"
        + ("import scipy.fft\n" if scipy_first else "")
        + "from repro.core import _pocketfft\n"
        "import scipy.fft\n"
        "assert _pocketfft._kernel is not None\n"
        "assert sys.modules[_pocketfft._NAME] is _pocketfft._kernel\n"
        "assert scipy.fft._pocketfft.realtransforms.pfft is _pocketfft._kernel\n"
        "import numpy as np\n"
        "x = np.random.default_rng(3).standard_normal((8, 3, 64))\n"
        "a = _pocketfft.dct_ortho(x, axis=2)\n"
        "b = scipy.fft.dct(x, type=2, norm='ortho', axis=2)\n"
        "assert np.array_equal(a.view(np.uint64), b.view(np.uint64))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )


def test_fallback_when_the_extension_is_not_found(monkeypatch):
    monkeypatch.delitem(sys.modules, _pocketfft._NAME)
    monkeypatch.setattr(
        importlib.machinery.FileFinder, "find_spec", lambda *args, **kwargs: None
    )
    kernel = _pocketfft._load_kernel()
    assert kernel is None
    monkeypatch.setattr(_pocketfft, "_kernel", kernel)
    for shape, axis in CASES:
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        expected = scipy.fft.dct(x, type=2, norm="ortho", axis=axis)
        given = x.copy()
        assert np.array_equal(bits(dct_ortho(given, axis=axis)), bits(expected))
        assert np.array_equal(bits(given), bits(x))
        assert np.array_equal(
            bits(dct_ortho(given, axis=axis, overwrite_x=True)), bits(expected)
        )

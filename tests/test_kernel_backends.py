"""The compiled kernel and the pure-Python fallback return the same bits
(same summation order, same stopping rule, same exceptions).

``compiled`` is built from ``src/thetakit/_core.c`` by a session fixture
in ``conftest.py``; without a C compiler these tests skip."""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import pytest

import thetakit._series_py as pure
from thetakit.errors import NonConvergenceError


def outcome(fn, *args):
    """The repr of a kernel's sums, or of its exception's type, message
    and partial sums: equal reprs mean equal bits."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return repr((type(exc), str(exc), getattr(exc, "partial", None)))


CASES = [
    (0, 0, 0j, 0j, 1.0, 0.0, 1.1j, 0, 0),
    (1, 1, 0j, 0.2 + 0.1j, 1.0, 0.0, 0.3 + 0.9j, 0, 0),
    (1, 0, 1.0 / 6.0, 0j, 1.0, 0.0, 1.4j, 0, 5),
    (0, 1, 0.05 + 0.01j, 1.0 / 10.0, 1.0, 0.0, 0.2 + 1.2j, 2, 4),
    (0, 0, 0j, 0j, 3.0, 0.0, 1.2j, 0, 3),
    (1, 0, 0j, 0j, 0.5, 0.5, 1.3j, 0, 2),
]


@pytest.mark.parametrize("args", CASES)
def test_theta_sums_agree(compiled, args):
    a = compiled.theta_sums(*args, 1e-17, 3, 4096)
    b = pure.theta_sums(*args, 1e-17, 3, 4096)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("tau", [1.1j, 0.2 + 0.9j, 2.3j])
def test_dedekind_sums_agree(compiled, tau):
    a = compiled.dedekind_sums(tau, 5, 1e-17, 3, 4096)
    b = pure.dedekind_sums(tau, 5, 1e-17, 3, 4096)
    assert repr(a) == repr(b)


def test_both_backends_raise_nonconvergence(compiled):
    for impl in (compiled, pure):
        with pytest.raises(NonConvergenceError) as err:
            impl.theta_sums(0, 0, 0j, 0j, 1.0, 0.0, 0.001j, 0, 0,
                            1e-17, 3, 16)
        assert err.value.partial is not None


def test_reduced_characteristics_enforced(compiled):
    for impl in (compiled, pure):
        with pytest.raises(ValueError):
            impl.theta_sums(2, 0, 0j, 0j, 1.0, 0.0, 1.1j, 0, 0, 1e-17, 3, 64)


real = st.floats(-1.0, 1.0)
cplx = st.builds(complex, real, real)
taus = st.builds(complex, real, st.floats(0.005, 3.0))


@given(alpha=st.integers(0, 1), beta=st.integers(0, 1),
       a_lin=st.one_of(real, cplx), b_lin=cplx,
       m_scale=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       c_shift=st.one_of(real, cplx), tau=taus, nz=st.integers(0, 3),
       order=st.integers(0, 5), consecutive=st.integers(1, 3),
       max_terms=st.sampled_from([16, 64, 4096]))
@example(alpha=0, beta=0, a_lin=0j, b_lin=-200j, m_scale=1.0, c_shift=0.0,
         tau=1j, nz=0, order=0, consecutive=3, max_terms=4096)  # overflow
@example(alpha=0, beta=0, a_lin=0j, b_lin=0.125 - 113.49j, m_scale=1.0,
         c_shift=0.0, tau=1j, nz=0, order=0, consecutive=3,
         max_terms=4096)  # a finite term whose modulus overflows
@example(alpha=0, beta=0, a_lin=0j, b_lin=0.125 - 113.3j, m_scale=1.0,
         c_shift=0.0, tau=1j, nz=0, order=0, consecutive=3,
         max_terms=3)  # exp beyond cmath's overflow guard, still finite
@example(alpha=0, beta=0, a_lin=0j, b_lin=0j, m_scale=1.0, c_shift=0.0,
         tau=0.001j, nz=0, order=2, consecutive=3, max_terms=16)
@settings(max_examples=100, deadline=None)
def test_theta_sums_bit_identical(compiled, alpha, beta, a_lin, b_lin,
                                  m_scale, c_shift, tau, nz, order,
                                  consecutive, max_terms):
    args = (alpha, beta, a_lin, b_lin, m_scale, c_shift, tau, nz, order,
            1e-17, consecutive, max_terms)
    assert outcome(compiled.theta_sums, *args) == \
        outcome(pure.theta_sums, *args)


@given(tau=st.one_of(taus, cplx), order=st.integers(0, 5),
       consecutive=st.integers(1, 3), max_terms=st.sampled_from([16, 4096]))
@example(tau=0.001j, order=2, consecutive=3, max_terms=16)
@example(tau=-1j, order=1, consecutive=3, max_terms=4096)  # overflow
@settings(max_examples=50, deadline=None)
def test_dedekind_sums_bit_identical(compiled, tau, order, consecutive,
                                     max_terms):
    args = (tau, order, 1e-17, consecutive, max_terms)
    assert outcome(compiled.dedekind_sums, *args) == \
        outcome(pure.dedekind_sums, *args)


def test_backend_selector_env():
    code = "import thetakit; print(thetakit.KERNEL_BACKEND)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "THETAKIT_PURE": "1"})
    assert out.stdout.strip() == "python"


def test_core_has_no_fused_multiply_add(tmp_path):
    """Built for a CPU with FMA (-O3 -march=haswell), ``_core.c`` still
    rounds every product on its own: the assembly holds no FMA mnemonic."""
    cc = os.environ.get("CC", "cc").split()
    if not shutil.which(cc[0]):
        pytest.skip("no C compiler")
    probe = subprocess.run(cc + ["-march=haswell", "-x", "c", "-S", "-o",
                                 os.devnull, "-"], input="int x;\n",
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip("the compiler rejects -march=haswell")
    source = Path(__file__).resolve().parents[1] / "src" / "thetakit" / "_core.c"
    asm = tmp_path / "_core.s"
    subprocess.run(cc + ["-O3", "-march=haswell", "-fPIC", "-S",
                         f"-I{sysconfig.get_paths()['include']}", str(source),
                         "-o", str(asm)], check=True, capture_output=True,
                   timeout=600)
    assert not re.findall(r"\bvfn?m(?:add|sub)\w*", asm.read_text())

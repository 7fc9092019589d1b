"""Pure-Python q-series kernel.

Everything transcendental in this package reduces to two bilateral sums:

* the theta series with integer characteristics ``(alpha, beta)`` in
  ``{0,1}``, evaluated with an affine argument ``z = A*tau + B`` and an
  affine modulus ``M*tau + C``, together with termwise z-derivatives and
  termwise tau-derivatives (exact per term, since each term is an
  exponential whose tau-slope is ``i*pi*M*(k+alpha/2)^2 + 2*i*pi*A*(k+alpha/2)``);

* the pentagonal-number sum, with the ``e^{i pi tau/12}`` prefactor folded
  into each term so that termwise tau-differentiation stays exact.

The compiled extension ``thetakit._core`` (``_core.c``) implements the same
two functions and returns the same bits: it performs every complex operation
below in the same order and association, and tests/test_kernel_backends.py
checks the identity.  This module is the always-available fallback and the
semantic reference.
"""

from cmath import exp, pi

from .errors import NonConvergenceError

BACKEND = "python"

_IPI = 1j * pi
_2IPI = 2j * pi


def theta_sums(alpha, beta, a_lin, b_lin, m_scale, c_shift, tau,
               nz, order, abs_floor, consecutive, max_terms):
    """Termwise sums of the characteristic theta series.

    Returns ``S[0..order]`` with

        S_j = sum_k  w_k * slope_k**j,
        w_k = exp(i*pi*(k+h)^2*(M*tau+C) + 2*i*pi*(k+h)*(A*tau+B+beta/2))
              * (2*i*pi*(k+h))**nz,
        slope_k = i*pi*M*(k+h)^2 + 2*i*pi*A*(k+h),     h = alpha/2.

    ``S_0`` is the nz-th z-derivative of theta[alpha,beta](A*tau+B | M*tau+C)
    and ``S_j`` its j-th tau-derivative.  Summation is symmetric in the pair
    ``(k, -k-alpha)`` and stops once ``consecutive`` successive pairs are
    negligible against every running partial-sum maximum.
    """
    if alpha not in (0, 1) or beta not in (0, 1):
        raise ValueError("characteristics must be reduced to {0,1}")
    mod = m_scale * tau + c_shift
    arg = a_lin * tau + b_lin + 0.5 * beta
    nsum = order + 1
    sums = [0j] * nsum
    run_max = [0.0] * nsum
    group_mag = [0.0] * nsum
    negligible_run = 0
    terms_used = 0
    rho = 0
    while True:
        if rho == 0 and alpha == 0:
            ks = (0,)
        else:
            ks = (rho, -rho - alpha)
        for j in range(nsum):
            group_mag[j] = 0.0
        for k in ks:
            kh = k + 0.5 * alpha
            term = exp((_IPI * kh * kh) * mod + (_2IPI * kh) * arg)
            if nz:
                dz = _2IPI * kh
                for _ in range(nz):
                    term *= dz
            slope = (_IPI * m_scale) * kh * kh + (_2IPI * a_lin) * kh
            for j in range(nsum):
                sums[j] += term
                m = abs(sums[j])
                if m > run_max[j]:
                    run_max[j] = m
                group_mag[j] += abs(term)
                term *= slope
        terms_used += len(ks)
        small = True
        for j in range(nsum):
            if group_mag[j] > abs_floor * run_max[j]:
                small = False
                break
        if small:
            negligible_run += 1
            if negligible_run >= consecutive:
                return sums
        else:
            negligible_run = 0
        if terms_used >= max_terms:
            raise NonConvergenceError(
                f"theta series did not settle within {max_terms} terms",
                partial=list(sums))
        rho += 1


def dedekind_sums(tau, order, abs_floor, consecutive, max_terms):
    """Termwise sums of the pentagonal-number series.

    Returns ``S[0..order]`` with

        S_j = sum_k (-1)^k * exp(i*pi*tau*(3k^2+k+1/12)) * slope_k**j,
        slope_k = i*pi*(3k^2+k+1/12),

    so ``S_0`` is the Dedekind product's sum form and ``S_j`` its j-th
    tau-derivative.
    """
    nsum = order + 1
    sums = [0j] * nsum
    run_max = [0.0] * nsum
    group_mag = [0.0] * nsum
    negligible_run = 0
    terms_used = 0
    rho = 0
    while True:
        ks = (0,) if rho == 0 else (rho, -rho)
        for j in range(nsum):
            group_mag[j] = 0.0
        for k in ks:
            e = 3.0 * k * k + k + 1.0 / 12.0
            term = exp((_IPI * e) * tau)
            if k & 1:
                term = -term
            slope = _IPI * e
            for j in range(nsum):
                sums[j] += term
                m = abs(sums[j])
                if m > run_max[j]:
                    run_max[j] = m
                group_mag[j] += abs(term)
                term *= slope
        terms_used += len(ks)
        small = True
        for j in range(nsum):
            if group_mag[j] > abs_floor * run_max[j]:
                small = False
                break
        if small:
            negligible_run += 1
            if negligible_run >= consecutive:
                return sums
        else:
            negligible_run = 0
        if terms_used >= max_terms:
            raise NonConvergenceError(
                f"pentagonal series did not settle within {max_terms} terms",
                partial=list(sums))
        rho += 1

"""The exp-form kernel and the crown-sum oracle against a 60-digit mpmath
reference for k_x in [-30, 30], and K_z(0) and the ball integrals over G_k,
k in [-8, 8], against the same suffix sums.

The reference is the crown-sum closed form (see :mod:`qharm.kernel`), summed
exactly; its cancellation in the far field costs at most about 30 of the 60
digits.  The exp-form terms q**(-j n) D_j are summed exactly as well, which
gives the true truncation error of a result cut before the term J.
"""

import cmath
import math

import mpmath
import pytest

from qharm import kernel
from qharm.field import FieldParams
from qharm.kernel import (
    DEFAULT_CFG,
    KernelEvalConfig,
    kernel_at_zero,
    kernel_ball_integral,
    kernel_crown_sum,
    kernel_exp_form,
    kernel_profile,
)
from qharm.verification import TOL_KERNEL_AGREE

KXS = range(-30, 31)
KS = range(-8, 9)
ARGS = (0.0, math.pi / 3, -math.pi / 3)
ZS = [mod * cmath.exp(1j * arg) for mod in (0.01, 1.0, 100.0) for arg in ARGS]
PARAMS = [
    FieldParams(q, n, alpha) for q in (2, 3) for n in (1, 2) for alpha in (0.5, 1.0, 2.0)
]
DIGITS = 60
ROUNDOFF = 2.0**-40  # relative allowance for double rounding, about 9e-13
AGREE_CFG = KernelEvalConfig(tail_budget=256, tol=1e-15)  # the kernel-agree suite's


def _crown_suffix(z, params, k_lo, k_hi):
    """sum_{k'=k}^{k_hi} exp(-z q**(-k' alpha)) q**(-k' n) for k in [k_lo, k_hi]."""
    q, n = mpmath.mpf(params.q), params.n
    a, zz = mpmath.mpf(params.alpha), mpmath.mpc(z)
    suffix, acc = {}, mpmath.mpc(0)
    for k in range(k_hi, k_lo - 1, -1):
        acc += mpmath.exp(-zz * q ** (-k * a)) * q ** (-k * n)
        suffix[k] = acc
    return suffix


def _crown_reference(z, params, kxs):
    """K_z at ||x|| = q**(-k_x) from the crown sum, by suffix sums of
    exp(-z q**(-k alpha)) q**(-k n) over k >= -k_x."""
    q, n = mpmath.mpf(params.q), params.n
    a, zz = mpmath.mpf(params.alpha), mpmath.mpc(z)
    # the terms past k_hi sum below 10**-DIGITS times 0.01 q**(-30 (n + alpha)),
    # the far-field size at |z| = 0.01
    lq = math.log10(params.q)
    k_hi = math.ceil((-min(kxs) * (n + params.alpha) * lq + DIGITS + 2) / (n * lq))
    suffix = _crown_suffix(z, params, -max(kxs), k_hi)
    out = {}
    for k_x in kxs:
        corr = mpmath.exp(-zz * q**a * q ** (k_x * a)) * q ** (k_x * n)
        out[k_x] = (1 - q ** (-n)) * suffix[-k_x] - corr
    return out


def _exp_form_tails(z, params, j_lo, j_hi):
    """sum_{j' >= j} q**(-j' n) D_j' for j in [j_lo, j_hi]; the terms past
    j_hi are below 1e-60 of the sum from j_hi on."""
    q, n = mpmath.mpf(params.q), params.n
    a, zz = mpmath.mpf(params.alpha), mpmath.mpc(z)
    j_end = j_hi + int(DIGITS / ((n + params.alpha) * math.log10(params.q))) + 1
    e = {j: mpmath.exp(-zz * q ** (-j * a)) for j in range(j_lo - 1, j_end + 1)}
    tails, acc = {}, mpmath.mpc(0)
    for j in range(j_end, j_lo - 1, -1):
        acc += q ** (-j * n) * (e[j] - e[j - 1])
        tails[j] = acc
    return tails


def _cut_index(tail_bound, z, params):
    """The J with tail_bound = E |z| q**(-J (n + alpha)) (module docstring),
    up to a rounding pad far below one factor q**(n + alpha)."""
    rate = (params.n + params.alpha) * math.log(params.q)
    return round(math.log(kernel._power_envelope(params, z) / tail_bound) / rate)


@pytest.mark.parametrize(
    "params", PARAMS, ids=lambda p: f"q{p.q}-n{p.n}-a{p.alpha}"
)
def test_far_field_against_mpmath(params):
    with mpmath.workdps(DIGITS):
        for z in ZS:
            ref = _crown_reference(z, params, KXS)
            results = {k_x: kernel_exp_form(z, k_x, params) for k_x in KXS}
            cuts = {k_x: _cut_index(r.tail_bound, z, params) for k_x, r in results.items()}
            tails = _exp_form_tails(z, params, -max(KXS), max(cuts.values()))
            prof = kernel_profile(z, (min(KXS), max(KXS)), params)
            for k_x, res in results.items():
                r = complex(ref[k_x])
                where = f"z={z}, k_x={k_x}"
                # the two closed forms agree at the reference precision
                assert abs(tails[-k_x] - ref[k_x]) <= 1e-25 * abs(ref[k_x]), where
                assert abs(res.value - r) <= TOL_KERNEL_AGREE * abs(r), where
                assert abs(prof.value_at(k_x) - r) <= TOL_KERNEL_AGREE * abs(r), where
                assert res.tail_bound <= DEFAULT_CFG.tol, where
                # the bound covers the true truncation error, and the value
                # is within the bound plus roundoff of the exact sum
                assert abs(complex(tails[cuts[k_x]])) <= res.tail_bound, where
                assert abs(res.value - r) <= res.tail_bound + ROUNDOFF * abs(r), where


@pytest.mark.parametrize("params", [PARAMS[0], PARAMS[-1]], ids=["q2-n1-a0.5", "q3-n2-a2.0"])
def test_window_block_matches_single_crowns(params):
    """One block over [-30, 30] (kernel_profile) agrees with each 1x1 call
    within the sum of the two tail bounds plus roundoff.  The block cuts at
    the scale of its outermost crown, the least over the window, so its
    bound is at most the 1x1 bound on every crown of the window."""
    for z in ZS:
        prof = kernel_profile(z, (min(KXS), max(KXS)), params)
        for k_x, v in zip(KXS, prof.coeffs.tolist()):
            one = kernel_exp_form(z, k_x, params)
            budget = 2.0 * one.tail_bound + ROUNDOFF * abs(one.value)
            assert abs(v - one.value) <= budget, f"z={z}, k_x={k_x}"


@pytest.mark.parametrize(
    "params", PARAMS, ids=lambda p: f"q{p.q}-n{p.n}-a{p.alpha}"
)
def test_crown_sum_bound(params):
    """The crown sum's bound (truncation plus roundoff) covers its error,
    which in the far field is mostly cancellation; near the origin, where
    little cancels, the roundoff share stays below TOL_KERNEL_AGREE / 10 of
    the value, so it cannot hide a disagreement."""
    with mpmath.workdps(DIGITS):
        for z in ZS:
            ref = _crown_reference(z, params, KXS)
            for k_x in KXS:
                res = kernel_crown_sum(z, k_x, params, AGREE_CFG)
                r = complex(ref[k_x])
                where = f"z={z}, k_x={k_x}"
                assert abs(res.value - r) <= res.tail_bound + ROUNDOFF * abs(r), where
                if k_x >= 0:
                    limit = AGREE_CFG.tol + TOL_KERNEL_AGREE / 10 * abs(r)
                    assert res.tail_bound <= limit, where


@pytest.mark.parametrize(
    "params", PARAMS, ids=lambda p: f"q{p.q}-n{p.n}-a{p.alpha}"
)
def test_at_zero_and_ball_integral_against_mpmath(params):
    """K_z(0) = (1 - q**-n) sum_{k in Z} exp(-z lam_k) q**(-k n) and the
    integral over G_k, q**(-k n) (1 - q**-n) sum_{j >= -k} of the same terms.
    The crown sum runs out to the first k where the term's modulus is below
    10**-(DIGITS + 10), past which the terms fall doubly exponentially, and
    in until its geometric tail is below 10**-(DIGITS + 30) q**(-8 n), far
    under every value here (the least, over G_8 at z = 100, is 2.3e-15)."""
    q, n, alpha = params.q, params.n, params.alpha
    lnq, log_cut = math.log(q), (DIGITS + 10) * math.log(10)
    k_hi = max(KS) + math.ceil((DIGITS + 30) / (n * math.log10(q)))
    with mpmath.workdps(DIGITS):
        w = 1 - mpmath.mpf(q) ** -n
        for z in ZS:
            k_lo = -max(KS)
            while z.real * float(q) ** (-k_lo * alpha) < -k_lo * n * lnq + log_cut:
                k_lo -= 1
            suffix = _crown_suffix(z, params, k_lo, k_hi)
            cases = [("K(0)", kernel_at_zero(z, params), w * suffix[k_lo])]
            for k in KS:
                ref = mpmath.mpf(q) ** (-k * n) * w * suffix[-k]
                cases.append((f"ball k={k}", kernel_ball_integral(z, k, params), ref))
            for what, res, ref in cases:
                r, where = complex(ref), f"{what}, z={z}"
                assert abs(res.value - r) <= TOL_KERNEL_AGREE * abs(r), where
                # the bound covers the truncation; the value is within it plus
                # roundoff of the exact sum
                assert abs(res.value - r) <= res.tail_bound + ROUNDOFF * abs(r), where

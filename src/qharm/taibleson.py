"""The Taibleson operator in both of its guises, with exact cross-checks.

D^alpha is the Fourier multiplier with symbol ||xi||**alpha, and equally the
hypersingular integral

    (D^alpha f)(x) = C * sum_k  int_{||y-x|| = q**k} (f(y) - f(x))
                                  * ||y-x||**(-alpha-n) dy,

with C = (1 - q**alpha) / (1 - q**(-alpha-n)) = 1 / Gamma_q^{(n)}(-alpha).
For crown-supported functions every sphere integral is exact, because
f - f(x) is crown-wise constant after recentering, and both geometric tails
close in elementary form.  The two routes agreeing on sphere indicators is
the module's central oracle test.

The Levy-Khinchin identity
    ||x||**alpha = (-1 / Gamma_q^{(n)}(-alpha))
                   * int (1 - chi(x . y)) ||y||**(-alpha-n) dy
is verifiable in closed form: the integral collapses to a geometric series
plus one boundary term.
"""

from __future__ import annotations

import numpy as np

from .field import FieldParams, QuotientLattice, _float_qpow
from .gamma import gamma_qn
from .radial import RadialProfile, _qpow_table, fourier_multiplier_apply


def hypersingular_constant(params: FieldParams) -> float:
    """(1 - q**alpha) / (1 - q**(-alpha-n)); equals 1 / Gamma_q^{(n)}(-alpha)."""
    q, n, alpha = params.q, params.n, params.alpha
    return (1.0 - float(q) ** alpha) / (1.0 - float(q) ** (-alpha - n))


def taibleson_fourier(f: RadialProfile) -> RadialProfile:
    """D^alpha f through the Fourier side: multiply by ||xi||**alpha.

    The multiplier value on the Fourier crown m is q**(-m*alpha), vanishing
    as m -> infinity, so the constant Fourier tail is damped below the float
    floor by window extension (decay exponent 1 in the eigenvalue).
    """
    return fourier_multiplier_apply(f, lambda lam: lam, limit_at_zero=0.0, decay=(1.0, 1.0))


def _loop_sum(start: complex, terms: np.ndarray) -> complex:
    """start + terms[0] + terms[1] + ... in a loop's order (np.sum would add pairwise)."""
    return complex(np.concatenate(((start,), terms)).cumsum()[-1])


def taibleson_hypersingular(f: RadialProfile, k_x: int | None) -> complex:
    """D^alpha f at a point of the crown S_{k_x} (k_x = None means x = 0).

    All sphere integrals are exact: for u = y - x on a crown strictly larger
    than ||x|| the integrand is f(crown) - f(x); strictly smaller crowns
    vanish; on the equal crown u + x sweeps G_{k_x} minus one coset of
    G_{k_x+1}.  Outer and inner tails are geometric series in closed form.
    A crown weight past the float range raises :class:`WindowOverflowError`.
    """
    q, n, alpha = f.params.q, f.params.n, f.params.alpha
    w = 1.0 - float(q) ** (-n)
    C = hypersingular_constant(f.params)

    fx = f.tail if k_x is None else f.value_at(k_x)  # f is the tail near 0
    # u-crowns j < k_x (||u|| > ||x||), all window crowns when x = 0: the
    # integrand is f_j - fx; crowns beyond kmax carry f_j = tail = fx
    top = f.kmax + 1 if k_x is None else max(f.kmin, min(k_x, f.kmax + 1))
    crowns = f.coeffs[: top - f.kmin] - fx
    total = _loop_sum(0j, crowns * _qpow_table(q, alpha, f.kmin, top - 1) * w)
    # outer tail j < kmin: f_j = 0
    total -= fx * w * _float_qpow(q, (f.kmin - 1) * alpha) / (1.0 - float(q) ** (-alpha))
    if k_x is None:
        return C * total
    # u-crowns above k_x (||u|| < ||x||): ||x+u|| = ||x||, integrand vanishes
    # equal crown: q**(k_x(alpha+n)) * sum_{m>k_x} (f_m - fx) mu(S_m), the suffix
    # sum over crowns m > k_x with the inner tail in closed form (f_m = 0 = fx
    # outside the window); the weight goes into every exponent, so no term
    # underflows where the sum is huge, and a locally constant f cancels exactly
    lo, e = max(k_x + 1, f.kmin), k_x * (alpha + n)
    if lo <= f.kmax:  # the crown measures q**(-m n) themselves stay floats
        _float_qpow(q, -lo * n)
    inner = (f.tail - fx) * _float_qpow(q, e - max(k_x + 1, f.kmax + 1) * n)
    if lo <= f.kmax:  # the largest weight, checked before the array is formed
        _float_qpow(q, e - lo * n)
    weights = np.power(float(q), e - np.arange(lo, f.kmax + 1) * n)
    total += _loop_sum(inner, (f.coeffs[lo - f.kmin :] - fx) * w * weights)
    return C * total


def taibleson_hypersingular_lattice(
    fq: np.ndarray, x_index: int, lattice: QuotientLattice
) -> complex:
    """D^alpha on the finite quotient model, evaluated at a lattice point.

    The quotient group is the whole space here: u ranges over the lattice
    cosets, the integrand vanishes identically on the zero coset (f is
    constant on cosets of G_N), and there is no outer tail.  Constants are
    annihilated exactly.
    """
    params = lattice.params
    alpha, n = params.alpha, params.n
    C = hypersingular_constant(params)
    vals = np.asarray(fq, dtype=complex)
    if vals.shape != (lattice.size,):
        raise ValueError(f"expected {lattice.size} lattice values")
    norms = lattice.norms()
    # shifted[u] = f(x + u): a mod-Q roll of the (Q,)*n grid (axis i is coordinate n-1-i)
    shift = [-u for u in reversed(lattice.coord_values(x_index))]
    grid = vals.reshape((lattice.coord_order,) * n)
    shifted = np.roll(grid, shift, axis=tuple(range(n))).ravel()
    mask = norms > 0
    weights = norms[mask] ** (-(alpha + n))
    total = np.sum((shifted[mask] - vals[x_index]) * weights) * float(lattice.coset_measure)
    return C * complex(total)


def levy_khinchin_check(
    k_x: int | None,
    params: FieldParams,
    mode: str = "closed_form",
    budget: int = 40,
) -> tuple[float, float]:
    """(lhs, rhs) of the Levy-Khinchin identity at ||x|| = q**(-k_x).

    lhs = ||x||**alpha.  rhs = -S / Gamma_q^{(n)}(-alpha) with
    S = (1 - q**-n) * sum_{k <= n0 - 1} q**(k alpha) + ||x||**alpha
        * q**(-alpha-n),  n0 = -k_x,
    summed exactly (closed_form) or crown by crown over ``budget`` spheres
    (truncated).
    """
    if k_x is None:
        return (0.0, 0.0)
    if mode not in ("closed_form", "truncated"):
        raise ValueError(f"mode must be closed_form or truncated, got {mode}")
    q, n, alpha = params.q, params.n, params.alpha
    n0 = -k_x
    w = 1.0 - float(q) ** (-n)
    xa = _float_qpow(q, n0 * alpha, "eigenvalue")
    boundary = xa * float(q) ** (-alpha - n)
    if mode == "closed_form":
        S = w * float(q) ** ((n0 - 1) * alpha) / (1.0 - float(q) ** (-alpha)) + boundary
    else:
        S = _loop_sum(boundary, w * _qpow_table(q, alpha, n0 - budget, n0 - 1)).real
    return (xa, -S / gamma_qn(-params.alpha, params).real)

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

from .field import FieldParams, QuotientLattice
from .gamma import gamma_qn
from .radial import RadialProfile, fourier_multiplier_apply


def hypersingular_constant(params: FieldParams) -> float:
    """(1 - q**alpha) / (1 - q**(-alpha-n)); equals 1 / Gamma_q^{(n)}(-alpha)."""
    q, n, alpha = params.q, params.n, params.alpha
    return (1.0 - float(q) ** alpha) / (1.0 - float(q) ** (-alpha - n))


def taibleson_fourier(f: RadialProfile, params: FieldParams | None = None) -> RadialProfile:
    """D^alpha f through the Fourier side: multiply by ||xi||**alpha.

    The multiplier value on the Fourier crown m is q**(-m*alpha), vanishing
    as m -> infinity, so the constant Fourier tail is damped below the float
    floor by window extension (decay exponent 1 in the eigenvalue).
    """
    if params is not None and params != f.params:
        raise ValueError("params disagree with the profile's field")
    return fourier_multiplier_apply(f, lambda lam: lam, limit_at_zero=0.0, decay=(1.0, 1.0))


def _suffix_integral(f: RadialProfile, k: int) -> complex:
    """sum_{m > k} f_m mu(S_m) including the closed-form inner tail."""
    q, n = f.params.q, f.params.n
    total = f.tail * float(q) ** (-max(k + 1, f.kmax + 1) * n)
    for m in range(max(k + 1, f.kmin), f.kmax + 1):
        total += f.value_at(m) * (1.0 - float(q) ** (-n)) * float(q) ** (-m * n)
    return total


def taibleson_hypersingular(
    f: RadialProfile, k_x: int | None, params: FieldParams | None = None
) -> complex:
    """D^alpha f at a point of the crown S_{k_x} (k_x = None means x = 0).

    All sphere integrals are exact: for u = y - x on a crown strictly larger
    than ||x|| the integrand is f(crown) - f(x); strictly smaller crowns
    vanish; on the equal crown u + x sweeps G_{k_x} minus one coset of
    G_{k_x+1}.  Outer and inner tails are geometric series in closed form.
    """
    params = f.params if params is None else params
    if params != f.params:
        raise ValueError("params disagree with the profile's field")
    q, n, alpha = params.q, params.n, params.alpha
    w = 1.0 - float(q) ** (-n)
    C = hypersingular_constant(params)

    if k_x is None:
        fx = f.tail  # f is locally constant near 0 by construction
        # sum_j (f_j - fx) q**(j(alpha+n)) mu(S_j); zero for j > kmax
        total = 0.0 + 0.0j
        for j in range(f.kmin, f.kmax + 1):
            total += (f.value_at(j) - fx) * float(q) ** (j * alpha) * w
        # outer tail j < kmin: f_j = 0
        total -= fx * w * float(q) ** ((f.kmin - 1) * alpha) / (1.0 - float(q) ** (-alpha))
        return C * total

    fx = f.value_at(k_x)
    total = 0.0 + 0.0j
    # u-crowns strictly below k_x (||u|| > ||x||): integrand f_j - fx there;
    # window crowns explicitly, crowns beyond kmax carry f_j = tail = fx
    for j in range(f.kmin, min(k_x, f.kmax + 1)):
        total += (f.value_at(j) - fx) * float(q) ** (j * alpha) * w
    # outer tail j < kmin: f_j = 0
    total -= fx * w * float(q) ** ((f.kmin - 1) * alpha) / (1.0 - float(q) ** (-alpha))
    # u-crowns above k_x (||u|| < ||x||): ||x+u|| = ||x||, integrand vanishes
    # equal crown: q**(k_x(alpha+n)) * (sum_{m>k_x} f_m mu(S_m) - fx mu(G_{k_x+1}))
    total += float(q) ** (k_x * (alpha + n)) * (
        _suffix_integral(f, k_x) - fx * float(q) ** (-(k_x + 1) * n)
    )
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
    fx = vals[x_index]
    shifted = np.empty_like(vals)
    for u in range(lattice.size):
        shifted[u] = vals[lattice.add(x_index, u)]
    mask = norms > 0
    weights = np.zeros_like(norms)
    weights[mask] = norms[mask] ** (-(alpha + n))
    total = np.sum((shifted[mask] - fx) * weights[mask]) * float(lattice.coset_measure)
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
    xa = float(q) ** (n0 * alpha)
    boundary = xa * float(q) ** (-alpha - n)
    if mode == "closed_form":
        S = w * float(q) ** ((n0 - 1) * alpha) / (1.0 - float(q) ** (-alpha)) + boundary
    else:
        S = boundary
        for k in range(n0 - budget, n0):
            S += w * float(q) ** (k * alpha)
    g = gamma_qn(-params.alpha, params)
    rhs = -S / g.real
    return (xa, rhs)


def real_part_variant_check(x_index: int, lattice: QuotientLattice) -> float:
    """|Im sum_{y != 0} chi(x . y) ||y||**(-alpha-n) mu(coset)| on the lattice.

    Vanishes by the y -> -y pairing: each sphere is symmetric and chi
    conjugates under negation, so only the real part of the character
    survives the improper sum.
    """
    params = lattice.params
    alpha, n = params.alpha, params.n
    norms = lattice.norms()
    chi = lattice.character_table(lattice.coords(x_index))
    mask = norms > 0
    total = np.sum(chi[mask] * norms[mask] ** (-(alpha + n)))
    return abs(float(total.imag) * float(lattice.coset_measure))

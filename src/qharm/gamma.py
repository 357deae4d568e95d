"""The n-dimensional Gelfand-Graev Gamma function.

Closed form Gamma_q^{(n)}(z) = (1 - q**(z-n)) / (1 - q**(-z)), a meromorphic
function with simple poles on the lattice (2 pi i / ln q) Z and simple zeros
on n + (2 pi i / ln q) Z, satisfying the exact reflection identity
Gamma(z) * Gamma(n - z) = 1.  An improper-crown-sum evaluator of the
defining oscillatory integral (valid for Re z > 0) serves as an independent
numerical oracle for the closed form.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, ToleranceError
from .field import FieldParams, sphere_character_integral

DEFAULT_POLE_EPS = 1e-8


def _pole_distance(z: complex, q: int) -> float:
    """Distance of z*ln(q) from the lattice 2*pi*i*Z."""
    w = z * math.log(q)
    im = math.remainder(w.imag, 2.0 * math.pi)
    return math.hypot(w.real, im)


def gamma_qn(z: complex, params: FieldParams, pole_eps: float = DEFAULT_POLE_EPS) -> complex:
    """(1 - q**(z-n)) / (1 - q**(-z)); raises PoleError near the pole lattice."""
    q, n = params.q, params.n
    if _pole_distance(z, q) < pole_eps:
        raise PoleError(
            f"z={z} is within {pole_eps} of a pole of Gamma_q^(n) "
            f"(lattice 2*pi*i/ln(q) * Z)"
        )
    lnq = math.log(q)
    return (1.0 - cmath.exp((z - n) * lnq)) / (1.0 - cmath.exp(-z * lnq))


def reflection_defect(
    z: complex, params: FieldParams, pole_eps: float = DEFAULT_POLE_EPS
) -> float:
    """|Gamma(z) * Gamma(n - z) - 1|, zero up to rounding away from poles."""
    a = gamma_qn(z, params, pole_eps)
    b = gamma_qn(params.n - z, params, pole_eps)
    return abs(a * b - 1.0)


def gamma_via_integral(
    z: complex,
    params: FieldParams,
    tol: float = 1e-12,
    max_crowns: int = 200_000,
) -> complex:
    """Improper crown-sum oracle for the Gamma closed form, Re z > 0.

    Sums q**(m*(z-n)) times the sphere-character integral at a unit-norm
    point over spheres ||x|| = q**m.  Only m <= 1 contributes: the m = 1
    crown gives the single term -q**(z-n) exactly, and the m <= 0 terms form
    a series with geometric tail bound (1 - q**(-n)) * q**(-K*Re z) /
    (1 - q**(-Re z)) after K crowns, summed until the bound drops below tol.
    """
    if not z.real > 0:
        raise ValueError(f"integral representation needs Re z > 0, got {z}")
    q, n = params.q, params.n
    lnq = math.log(q)
    unit_norm = 1  # ||u|| = 1 = q**0
    # crown ||x|| = q**m is the sphere at scale index -m
    total = cmath.exp((z - n) * lnq) * float(
        sphere_character_integral(-1, unit_norm, params)
    )
    m = 0
    decay = math.exp(-z.real * lnq)
    while True:
        total += cmath.exp(m * (z - n) * lnq) * float(
            sphere_character_integral(-m, unit_norm, params)
        )
        # remaining crowns m' < m: |q**(m'*(z-n))| * mu <= (1-q**-n) q**(m'*Re z)
        tail = (1.0 - q ** float(-n)) * math.exp((m - 1) * z.real * lnq) / (1.0 - decay)
        if tail < tol:
            return total
        m -= 1
        if -m > max_crowns:
            raise ToleranceError(
                f"gamma integral did not reach tol={tol} within "
                f"{max_crowns} crowns (Re z = {z.real} too small?)"
            )

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

from .errors import PoleError, ToleranceError, WindowOverflowError
from .field import FieldParams, sphere_character_integral

_POLE_EPS = 1e-8  # closest approach to a pole gamma_qn evaluates
_MAX_CROWNS = 200_000  # most crowns gamma_via_integral sums


def _pole_distance(z: complex, q: int) -> float:
    """Distance of z*ln(q) from the lattice 2*pi*i*Z."""
    w = z * math.log(q)
    im = math.remainder(w.imag, 2.0 * math.pi)
    return math.hypot(w.real, im)


def _finite_argument(z) -> None:
    """Raise ValueError, before any work, unless z is a finite number."""
    if not cmath.isfinite(z):
        raise ValueError(f"Gamma_q^(n) argument must be finite, got {z}")


def gamma_qn(z: complex, params: FieldParams) -> complex:
    """(1 - q**(z-n)) / (1 - q**(-z)); raises ValueError for a NaN or infinite
    z, PoleError near the pole lattice and WindowOverflowError when either
    power of q is no finite float."""
    _finite_argument(z)
    q, n = params.q, params.n
    if _pole_distance(z, q) < _POLE_EPS:
        msg = f"z={z} is within {_POLE_EPS} of a pole of Gamma_q^(n) (lattice 2*pi*i/ln(q) * Z)"
        raise PoleError(msg)
    lnq = math.log(q)
    if z.real * lnq not in (math.inf, -math.inf):  # else exp returns inf, not raise
        try:
            return (1.0 - cmath.exp((z - n) * lnq)) / (1.0 - cmath.exp(-z * lnq))
        except OverflowError:
            pass
    raise WindowOverflowError(f"a power of q={q} in Gamma_q^({n})({z}) leaves the float range")


def reflection_defect(z: complex, params: FieldParams) -> float:
    """|Gamma(z) * Gamma(n - z) - 1|, zero up to rounding away from poles."""
    a = gamma_qn(z, params)
    b = gamma_qn(params.n - z, params)
    return abs(a * b - 1.0)


def gamma_via_integral(z: complex, params: FieldParams, tol: float = 1e-12) -> complex:
    """Improper crown-sum oracle for the Gamma closed form, Re z > 0.

    Sums q**(m*(z-n)) times the sphere-character integral at a unit-norm
    point over spheres ||x|| = q**m.  Only m <= 1 contributes: the m = 1
    crown gives the single term -q**(z-n) exactly, and the m <= 0 terms form
    a series with geometric tail bound (1 - q**(-n)) * q**(-K*Re z) /
    (1 - q**(-Re z)) after K crowns, summed until the bound drops below tol.
    A z that is not finite raises ValueError, a Re z so small that the bound
    misses tol within ``_MAX_CROWNS`` crowns ToleranceError, and a crown
    power q**(m (z-n)) past the floats at the first or the last crown
    WindowOverflowError, before any crown is summed.
    """
    _finite_argument(z)
    if not z.real > 0:
        raise ValueError(f"integral representation needs Re z > 0, got {z}")
    q, n = params.q, params.n
    lnq = math.log(q)
    decay = math.exp(-z.real * lnq)
    # the bound after the last crown the budget allows; it falls as crowns are added
    if decay == 1.0 or _crown_tail(q, n, z.real, lnq, -_MAX_CROWNS, decay) >= tol:
        raise ToleranceError(
            f"gamma integral does not reach tol={tol} within "
            f"{_MAX_CROWNS} crowns (Re z = {z.real} too small)"
        )
    # the last crown is the first m <= 0 whose tail bound is below tol; the
    # modulus of the crown power q**(m (z-n)) is monotone in m, so the first
    # crown m = 1 and that last crown bound it
    last = 0
    while _crown_tail(q, n, z.real, lnq, last, decay) >= tol:
        last -= 1
    for m in (1, last):
        try:  # formed as the loop forms it; exp of an infinite part returns inf
            power = cmath.exp(m * (z - n) * lnq)
        except OverflowError:
            power = math.inf
        if not cmath.isfinite(power):
            raise WindowOverflowError(
                f"crown power q**(m (z-n)) at m={m} of the gamma integral at q={q}, "
                f"z={z} leaves the float range"
            )
    unit_norm = 1  # ||u|| = 1 = q**0
    # crown ||x|| = q**m is the sphere at scale index -m
    total = cmath.exp((z - n) * lnq) * float(
        sphere_character_integral(-1, unit_norm, params)
    )
    for m in range(0, last - 1, -1):
        total += cmath.exp(m * (z - n) * lnq) * float(
            sphere_character_integral(-m, unit_norm, params)
        )
    return total


def _crown_tail(q: int, n: int, x: float, lnq: float, m: int, decay: float) -> float:
    """Bound on the crowns m' < m of the integral at Re z = x:
    |q**(m'*(z-n))| * mu <= (1-q**-n) q**(m'*x), decay = q**(-x)."""
    return (1.0 - q ** float(-n)) * math.exp((m - 1) * x * lnq) / (1.0 - decay)

"""Sectorial functional calculus for the Taibleson operator.

On radial profiles the operator is diagonal: the Fourier crown m carries
the eigenvalue lam_m = q**(-m*alpha).  ``hinf_apply_direct`` multiplies on
that diagonal and is the exact ground truth; the resolvent and the contour
integral

    f(A) = (1/(2 pi i)) * int_{boundary of Sigma_nu} f(z) R(z, A) dz

(counterclockwise, log-radius trapezoid quadrature on both rays) are
verifiable redundancy: they exercise the machinery an infinite-dimensional
setting needs, against the diagonal oracle.  Discrete square functions and
a seeded empirical Rademacher-ratio witness round out the toolbox.  Every
route extends the Fourier window by the rule in :mod:`qharm.radial`, sized
by the symbol's decay certificate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import radial
from .errors import QuadratureError, SpectrumError
from .field import FieldParams
from .radial import (
    LOG_FLOOR,
    RadialProfile,
    fourier_multiplier_apply,
    lp_norm,
    radial_fourier,
)


@dataclass(frozen=True)
class SymbolFunction:
    """A holomorphic symbol on a sector with a certified two-sided decay.

    ``decay = (s, C)`` certifies |fn(z)| <= C * min(|z|**s, |z|**(-s)) on the
    working sector of half-angle ``sector_angle``; the certificate is spot
    checked on the sector boundary at construction.
    """

    fn: Callable[[complex], complex]
    decay: tuple[float, float]
    sector_angle: float

    def __post_init__(self) -> None:
        s, C = self.decay
        if not (s > 0 and C > 0):
            raise ValueError(f"decay certificate needs s, C > 0, got {self.decay}")
        if not 0 < self.sector_angle < math.pi:
            raise ValueError(f"sector angle must lie in (0, pi), got {self.sector_angle}")
        for sign in (1.0, -1.0):
            ang = sign * 0.999 * self.sector_angle
            for r in np.logspace(-6, 6, 25):
                z = r * cmath.exp(1j * ang)
                cap = C * min(r**s, r**-s)
                if abs(self.fn(z)) > cap * (1.0 + 1e-8) + 1e-300:
                    raise ValueError(
                        f"decay certificate violated at z={z}: |f|={abs(self.fn(z))} "
                        f"> {cap}"
                    )

    def __call__(self, z: complex) -> complex:
        return self.fn(z)


@dataclass(frozen=True)
class ContourConfig:
    """Sector-boundary quadrature: angle, node density, radius range."""

    nu: float
    nodes_per_decade: int = 16
    radius_range: tuple[float, float] = (1e-8, 1e8)

    def __post_init__(self) -> None:
        if not 0 < self.nu < math.pi:
            raise ValueError(f"contour angle must lie in (0, pi), got {self.nu}")
        if self.nodes_per_decade < 2:
            raise ValueError("need at least 2 nodes per decade")
        r0, r1 = self.radius_range
        if not 0 < r0 < r1:
            raise ValueError(f"bad radius range {self.radius_range}")

    @classmethod
    def auto(
        cls,
        lam_min: float,
        lam_max: float,
        sym: SymbolFunction,
        nu: float = 0.5,
        tol: float = 1e-8,
        nodes_per_decade: int = 24,
    ) -> "ContourConfig":
        """Radius range wide enough that the ray truncation error is below
        tol relative, padded per the symbol's decay exponent."""
        s, _C = sym.decay
        pad = (math.log10(1.0 / tol) + 2.0) / s
        return cls(
            nu,
            nodes_per_decade,
            (lam_min * 10.0 ** (-pad), lam_max * 10.0**pad),
        )


def nearest_eigenvalue(z: complex, params: FieldParams) -> float:
    """Nearest point of the diagonal spectrum {q**(alpha*m)} union {0}."""
    q, alpha = params.q, params.alpha
    if abs(z) == 0:
        return 0.0
    t = math.log(abs(z)) / (alpha * math.log(q))
    cands = [0.0] + [
        float(q) ** (alpha * m) for m in (math.floor(t), math.ceil(t), round(t))
    ]
    return min(cands, key=lambda lam: abs(z - lam))


def resolvent_apply(
    z: complex, f: RadialProfile, standoff_rel: float = 1e-6
) -> RadialProfile:
    """R(z, A) f = (z - A)^{-1} f on the Fourier diagonal."""
    lam_star = nearest_eigenvalue(z, f.params)
    dist = abs(z - lam_star)
    if dist < standoff_rel * max(abs(z), lam_star, 1e-300):
        raise SpectrumError(
            f"z={z} is within relative {standoff_rel} of the spectrum point "
            f"{lam_star}"
        )
    # |1/(z-lam) - 1/z| = lam / (|z| |z-lam|) <= 2 lam / |z|**2 for lam <= |z|/2
    decay = (1.0, 2.0 / abs(z) ** 2)
    return fourier_multiplier_apply(
        f, lambda lam: 1.0 / (z - lam), limit_at_zero=1.0 / z, decay=decay
    )


def hinf_apply_direct(sym, g: RadialProfile, value_at_zero: complex = 0.0) -> RadialProfile:
    """Ground truth: multiply the Fourier crown m by sym(lam_m).

    ``value_at_zero`` is the symbol's limit along the spectrum toward 0;
    for a decaying SymbolFunction it is 0 and the decay certificate sizes
    the window extension.
    """
    if isinstance(sym, SymbolFunction):
        return fourier_multiplier_apply(g, sym.fn, limit_at_zero=0.0, decay=sym.decay)
    return fourier_multiplier_apply(
        g, sym, limit_at_zero=value_at_zero, decay=(1.0, 1.0)
    )


def semigroup_apply(z, g: RadialProfile) -> RadialProfile:
    """T_z g: multiply the Fourier crown m by exp(-z * lam_m), Re z > 0."""
    zc = complex(z)
    if not zc.real > 0 and zc != 0:
        raise ValueError(f"semigroup time needs Re z > 0 (or z = 0), got {z}")

    def sym(lam: float) -> complex:
        w = -zc * lam
        if w.real < LOG_FLOOR:
            return 0.0 + 0.0j
        return cmath.exp(w)

    # |exp(-z lam) - 1| <= |z| lam for Re z >= 0
    return fourier_multiplier_apply(
        g, sym, limit_at_zero=1.0, decay=(1.0, max(abs(zc), 1e-300))
    )


class ContourResult(NamedTuple):
    profile: RadialProfile
    error_estimate: float


def _contour_factors(
    lams: np.ndarray, sym: SymbolFunction, contour: ContourConfig
) -> np.ndarray:
    """Quadrature of (1/(2 pi i)) int f(z)/(z - lam) dz over the sector rays."""
    r0, r1 = contour.radius_range
    decades = math.log10(r1 / r0)
    nnode = max(2, int(math.ceil(decades * contour.nodes_per_decade)) + 1)
    u = np.linspace(math.log(r0), math.log(r1), nnode)
    h = u[1] - u[0]
    w = np.full(nnode, h)
    w[0] = w[-1] = h / 2.0
    r = np.exp(u)

    total = np.zeros(lams.size, dtype=complex)
    for sign, orient in ((-1.0, +1.0), (+1.0, -1.0)):
        e = cmath.exp(1j * sign * contour.nu)
        zs = r * e
        fv = np.array([sym.fn(z) for z in zs], dtype=complex)
        # int f(z) R(z, lam) dz over the ray, dz = e * r du
        integ = (w * fv * zs)[:, None] / (zs[:, None] - lams[None, :])
        total += orient * integ.sum(axis=0)
    return total / (2j * math.pi)


def hinf_apply_contour(
    sym: SymbolFunction,
    g: RadialProfile,
    contour: ContourConfig | None = None,
    tol: float = 1e-6,
) -> ContourResult:
    """f(A) g by sector-contour quadrature of resolvents.

    Counterclockwise boundary orientation: outward along arg z = -nu, inward
    along arg z = +nu.  The result carries an error estimate from node
    doubling; :class:`QuadratureError` is raised when doubling moves the
    result by more than tol (relative).
    """
    # same tail extension rule as the direct route, so both routes truncate
    # the constant Fourier tail identically
    ghat, lams = radial._extended_hat(g, sym.decay)

    if contour is None:
        contour = ContourConfig.auto(float(lams.min()), float(lams.max()), sym)
    if not 0 < contour.nu < sym.sector_angle:
        raise ValueError(
            f"contour angle {contour.nu} must lie inside the symbol sector "
            f"(0, {sym.sector_angle})"
        )

    coarse = _contour_factors(lams, sym, contour)
    fine = _contour_factors(
        lams,
        sym,
        ContourConfig(contour.nu, 2 * contour.nodes_per_decade, contour.radius_range),
    )

    def assemble(factors: np.ndarray) -> RadialProfile:
        out = RadialProfile(
            g.params, ghat.kmin, ghat.kmax, ghat.coeffs * factors, tail=0.0
        )
        return radial_fourier(out, direction="inverse")

    prof_fine = assemble(fine)
    prof_coarse = assemble(coarse)
    diff = lp_norm(prof_fine - prof_coarse, 2)
    scale = max(lp_norm(prof_fine, 2), 1e-300)
    if diff > tol * scale:
        raise QuadratureError(
            f"contour quadrature not converged: node doubling moved the "
            f"result by {diff / scale:.3e} (tol {tol})"
        )
    return ContourResult(prof_fine, diff / scale)


def geometric_time_grid(t_min: float, t_max: float, per_decade: int = 12) -> np.ndarray:
    """Log-midpoint grid on [t_min, t_max]; pairs with weight dlog t."""
    decades = math.log10(t_max / t_min)
    nn = max(1, int(math.ceil(decades * per_decade)))
    edges = np.linspace(math.log(t_min), math.log(t_max), nn + 1)
    return np.exp((edges[:-1] + edges[1:]) / 2.0)


def square_function(
    g: RadialProfile,
    phi: SymbolFunction,
    grid: np.ndarray | None = None,
    p: float = 2.0,
    per_decade: int = 12,
    pad_decades: float = 7.0,
) -> float:
    """L^p norm of the discrete square function of g through phi.

    Discretizes int_0^infty |phi(t A) g|^2 dt/t on a geometric grid with the
    log-midpoint rule, takes the pointwise square root and returns its L^p
    norm.  When ``grid`` is omitted it is sized so that u = t * lam covers
    [10**-pad, 10**pad] for every eigenvalue carrying non-negligible mass;
    a warning fires when the boundary terms exceed 1% of the sum.
    """
    ghat, lams = radial._extended_hat(g, phi.decay)

    if grid is None:
        grid = geometric_time_grid(
            10.0 ** (-pad_decades) / float(lams.max()),
            10.0**pad_decades / float(lams.min()),
            per_decade,
        )
    grid = np.asarray(grid, dtype=float)
    dlog = float(np.mean(np.diff(np.log(grid)))) if grid.size > 1 else 1.0

    acc: np.ndarray | None = None
    acc_tail = 0.0
    first = last = 0.0
    out_window: tuple[int, int] | None = None
    for idx, t in enumerate(grid):
        factors = np.array([phi.fn(t * lam) for lam in lams], dtype=complex)
        prof = radial_fourier(
            RadialProfile(g.params, ghat.kmin, ghat.kmax, ghat.coeffs * factors),
            direction="inverse",
        )
        vals = np.abs(prof.coeffs) ** 2
        if acc is None:
            acc = np.zeros_like(vals)
            out_window = (prof.kmin, prof.kmax)
        contrib = vals * dlog
        acc += contrib
        acc_tail += abs(prof.tail) ** 2 * dlog  # constant value near x = 0
        peak_contrib = float(np.max(contrib)) if contrib.size else 0.0
        if idx == 0:
            first = peak_contrib
        if idx == grid.size - 1:
            last = peak_contrib
    assert acc is not None and out_window is not None
    peak = float(np.max(acc)) if acc.size else 0.0
    if peak > 0 and max(first, last) > 0.01 * peak:
        warnings.warn(
            "square-function grid may not cover the spectrum window: "
            f"boundary contribution {max(first, last) / peak:.2%} of the peak",
            stacklevel=2,
        )
    s_prof = RadialProfile(
        g.params,
        out_window[0],
        out_window[1],
        np.sqrt(acc).astype(complex),
        tail=math.sqrt(acc_tail),
    )
    return lp_norm(s_prof, p)


def _random_profile(
    rng: np.random.Generator, params: FieldParams, kmin: int, kmax: int
) -> RadialProfile:
    m = kmax - kmin + 1
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return RadialProfile(params, kmin, kmax, vals)


def rademacher_ratio(
    family: Sequence[complex],
    p: float,
    trials: int,
    seed: int,
    params: FieldParams,
    window: tuple[int, int] = (-4, 4),
) -> float:
    """Empirical Rademacher-average ratio for {(cos arg z) T_z : z in family}.

    Each trial draws one sign vector and one tuple of random profiles and
    computes ||sum_j eps_j (cos arg z_j) T_{z_j} g_j||_p /
    ||sum_j eps_j g_j||_p; the maximum over trials is returned.
    Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    zs = [complex(z) for z in family]
    if any(not z.real > 0 for z in zs):
        raise ValueError("all family points need Re z > 0")
    coss = [z.real / abs(z) for z in zs]
    rng = np.random.default_rng(seed)
    kmin, kmax = window
    best = 0.0
    for _ in range(trials):
        eps = rng.integers(0, 2, size=len(zs)) * 2 - 1
        gs = [_random_profile(rng, params, kmin, kmax) for _ in zs]
        num_terms = [
            float(e) * c * semigroup_apply(z, g)
            for e, c, z, g in zip(eps, coss, zs, gs)
        ]
        num = num_terms[0]
        for t in num_terms[1:]:
            num = num + t
        den = gs[0] * float(eps[0])
        for e, g in zip(eps[1:], gs[1:]):
            den = den + float(e) * g
        dval = lp_norm(den, p)
        if dval == 0:
            continue
        best = max(best, lp_norm(num, p) / dval)
    return best

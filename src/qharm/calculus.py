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

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import radial
from .errors import QuadratureError, SpectrumError
from .field import FieldParams
from .radial import LOG_FLOOR, RadialProfile, fourier_multiplier_apply, lp_norm


@dataclass(frozen=True)
class SymbolFunction:
    """A holomorphic symbol on a sector with a certified two-sided decay.

    ``fn`` takes an ndarray (eigenvalues or complex nodes) and returns its
    values elementwise, e.g. with ``np.sqrt``, not ``cmath.sqrt``; every
    route calls it once per batch.  ``decay = (s, C)`` certifies
    |fn(z)| <= C * min(|z|**s, |z|**(-s)) on the working sector of
    half-angle ``sector_angle``; one array call spot checks it on the sector
    boundary at construction.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    decay: tuple[float, float]
    sector_angle: float

    def __post_init__(self) -> None:
        s, C = self.decay
        if not (s > 0 and C > 0):
            raise ValueError(f"decay certificate needs s, C > 0, got {self.decay}")
        if not 0 < self.sector_angle < math.pi:
            raise ValueError(f"sector angle must lie in (0, pi), got {self.sector_angle}")
        r = np.tile(np.logspace(-6, 6, 25), 2)
        zs = r * np.exp(1j * 0.999 * self.sector_angle * np.repeat([1.0, -1.0], 25))
        vals = np.broadcast_to(np.abs(self.fn(zs)), zs.shape)
        caps = C * np.minimum(r**s, r**-s)
        bad = np.flatnonzero(vals > caps * (1.0 + 1e-8) + 1e-300)
        if bad.size:
            i = bad[0]
            msg = f"decay certificate violated at z={zs[i]}: |f|={vals[i]} > {caps[i]}"
            raise ValueError(msg)


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
        try:
            r0, r1 = lam_min * 10.0 ** (-pad), lam_max * 10.0**pad
        except OverflowError:
            r0 = r1 = math.inf
        if not (r0 > 0.0 and math.isfinite(r1)):
            span = f"[{lam_min:.3e}e-{pad:.0f}, {lam_max:.3e}e+{pad:.0f}]"
            raise QuadratureError(f"contour radius range {span} leaves the float range")
        return cls(nu, nodes_per_decade, (r0, r1))


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


def _semigroup_factors(z, lams: np.ndarray) -> np.ndarray:
    """exp(-z * lam), 0 where the exponent's real part is below LOG_FLOOR."""
    w = -z * lams
    return np.where(w.real < LOG_FLOOR, 0.0, np.exp(w))


def _semigroup_decay(z: complex) -> tuple[float, float]:
    """|exp(-z lam) - 1| <= |z| lam for Re z >= 0."""
    return (1.0, max(abs(z), 1e-300))


def semigroup_apply(z, g: RadialProfile) -> RadialProfile:
    """T_z g: multiply the Fourier crown m by exp(-z * lam_m), Re z > 0."""
    zc = complex(z)
    if not zc.real > 0 and zc != 0:
        raise ValueError(f"semigroup time needs Re z > 0 (or z = 0), got {z}")
    return fourier_multiplier_apply(
        g,
        lambda lams: _semigroup_factors(zc, lams),
        limit_at_zero=1.0,
        decay=_semigroup_decay(zc),
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
        zs = r * np.exp(1j * sign * contour.nu)
        fv = sym.fn(zs)
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

    fine = ContourConfig(contour.nu, 2 * contour.nodes_per_decade, contour.radius_range)
    hats = ghat.coeffs * np.stack([_contour_factors(lams, sym, c) for c in (fine, contour)])
    kmin, kmax, out, tails = radial._fourier_block(g.params, ghat.kmin, ghat.kmax, hats)
    prof_fine, prof_coarse = (
        RadialProfile(g.params, kmin, kmax, row, tail=t) for row, t in zip(out, tails)
    )
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
    a warning fires when the boundary terms exceed 1% of the sum.  The grid
    times are the rows of one transform block.
    """
    ghat, lams = radial._extended_hat(g, phi.decay)

    if grid is None:
        grid = geometric_time_grid(
            10.0 ** (-pad_decades) / float(lams.max()),
            10.0**pad_decades / float(lams.min()),
            per_decade,
        )
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"time grid must be nonempty and 1-d, got shape {grid.shape}")
    dlog = float(np.mean(np.diff(np.log(grid)))) if grid.size > 1 else 1.0

    hats = ghat.coeffs * phi.fn(grid[:, None] * lams)
    kmin, kmax, out, tails = radial._fourier_block(g.params, ghat.kmin, ghat.kmax, hats)
    # the inner tail rides in the last column; sum(axis=0) adds rows in grid order
    contrib = np.abs(np.column_stack((out, tails))) ** 2 * dlog
    acc = contrib.sum(axis=0)
    peak = float(np.max(acc[:-1]))
    edge = float(max(np.max(contrib[0, :-1]), np.max(contrib[-1, :-1])))
    if peak > 0 and edge > 0.01 * peak:
        warnings.warn(
            "square-function grid may not cover the spectrum window: "
            f"boundary contribution {edge / peak:.2%} of the peak",
            stacklevel=2,
        )
    root = np.sqrt(acc)
    return radial._lp_norms(g.params, kmin, kmax, root[None, :-1], root[-1:], p)[0]


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
    Deterministic given the seed.  A trial is one transform block, a row per
    z, on the Fourier window the largest row extension needs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    zs = [complex(z) for z in family]
    if any(not z.real > 0 for z in zs):
        raise ValueError("all family points need Re z > 0")
    coss = np.array([z.real / abs(z) for z in zs])
    decays = [_semigroup_decay(z) for z in zs]
    zcol = np.array(zs)[:, None]
    rng = np.random.default_rng(seed)
    kmin, kmax = window
    best = 0.0
    for _ in range(trials):
        eps = (rng.integers(0, 2, size=len(zs)) * 2 - 1).astype(float)
        draws = rng.standard_normal((len(zs), 2, kmax - kmin + 1))  # re, im parts
        gs = draws[:, 0] + 1j * draws[:, 1]
        hkmin, hkmax, hats, htails = radial._fourier_block(params, kmin, kmax, gs)
        sizes = [abs(t) for t in htails.tolist()]
        top = max(radial._hat_depth(params, hkmax, t, d) for t, d in zip(sizes, decays))
        hats = np.column_stack((hats, np.repeat(htails[:, None], top - hkmax, axis=1)))
        hats *= _semigroup_factors(zcol, radial._eigenvalues(params, hkmin, top))
        okmin, okmax, outs, otails = radial._fourier_block(params, hkmin, top, hats, htails)
        # rows summed in order, the inner tails riding in the last column
        num = ((eps * coss)[:, None] * np.column_stack((outs, otails))).sum(axis=0)
        den = (eps[:, None] * np.column_stack((gs, 0.0 * eps))).sum(axis=0)
        dval = radial._lp_norms(params, kmin, kmax, den[None, :-1], den[-1:], p)[0]
        nval = radial._lp_norms(params, okmin, okmax, num[None, :-1], num[-1:], p)[0]
        if dval > 0:
            best = max(best, nval / dval)
    return best

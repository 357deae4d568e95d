"""Sectorial functional calculus for the Taibleson operator.

On radial profiles the operator is diagonal: the Fourier crown m carries
the eigenvalue lam_m = q**(-m*alpha).  ``hinf_apply_direct`` multiplies on
that diagonal and is the exact ground truth; the contour integral

    f(A) = (1/(2 pi i)) * int_{boundary of Sigma_nu} f(z) R(z, A) dz

(counterclockwise, log-radius trapezoid quadrature on both rays, its
resolvent factors z/(z - lam) built on the diagonal) is verifiable
redundancy: it exercises the machinery an infinite-dimensional setting
needs, against the diagonal oracle.  Square functions, as exact
quadratic forms in one Toeplitz kernel on the diagonal, and a seeded
empirical Rademacher-ratio witness round out the toolbox.  Every
route extends the Fourier window by the rule in :mod:`qharm.radial`, sized
by the symbol's decay certificate.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import radial
from .errors import QuadratureError
from .field import FieldParams
from .radial import LOG_FLOOR, RadialProfile, fourier_multiplier_apply

_BLOCK_ROWS = 256  # rows per Rademacher transform block, which bounds its memory
_BLOCK_ELEMS = 1 << 18  # entries per lag block of the Toeplitz kernel G
_G_EPS = 1e-17  # discretisation and truncation budget of each G(d)
_G_CACHE = 32  # (symbol, step) pairs whose Toeplitz kernel G is kept
_NODES_PER_DECADE = 24  # contour nodes per decade of radius
_CONTOUR_TOL = 1e-6  # relative node-doubling move the contour route accepts
_RAY_TOL = 1e-8  # relative ray truncation error of the contour radius range


@dataclass(frozen=True)
class SymbolFunction:
    """A holomorphic symbol on a sector with a certified two-sided decay.

    ``fn`` takes an ndarray (eigenvalues or complex nodes) and returns its
    values elementwise, e.g. with ``np.sqrt``, not ``cmath.sqrt``; every
    route calls it once per batch.  ``decay = (s, C)`` certifies
    |fn(z)| <= C * min(|z|**s, |z|**(-s)) on the working sector of
    half-angle ``sector_angle``; one array call spot checks it on the sector
    boundary at construction.  ``fn`` must be pure: G of :func:`square_function`
    is memoised per symbol and field step (a fresh lambda is a fresh entry).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    decay: tuple[float, float]
    sector_angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "decay", tuple(self.decay))  # hashable, as a memo key
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


def hinf_apply_direct(sym: SymbolFunction, g: RadialProfile) -> RadialProfile:
    """Ground truth: multiply the Fourier crown m by sym(lam_m).

    The symbol's limit along the spectrum toward 0 is 0 and its decay
    certificate sizes the window extension.
    """
    return fourier_multiplier_apply(g, sym.fn, limit_at_zero=0.0, decay=sym.decay)


def _semigroup_factors(z, lams: np.ndarray) -> np.ndarray:
    """exp(-z * lam), 0 where the exponent's real part is below LOG_FLOOR."""
    w = -z * lams
    return np.where(w.real < LOG_FLOOR, 0.0, np.exp(w))


def _semigroup_decay(z: complex) -> tuple[float, float]:
    """|exp(-z lam) - 1| <= |z| lam for Re z >= 0."""
    return (1.0, max(abs(z), 1e-300))


def _finite_time(z) -> complex:
    """z as a complex semigroup time; a NaN or infinite part raises ValueError."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise ValueError(f"semigroup time must be finite, got {z}")
    return zc


def semigroup_apply(z, g: RadialProfile) -> RadialProfile:
    """T_z g: multiply the Fourier crown m by exp(-z * lam_m), Re z > 0."""
    zc = _finite_time(z)
    if not zc.real > 0 and zc != 0:
        raise ValueError(f"semigroup time needs Re z > 0 (or z = 0), got {z}")
    return fourier_multiplier_apply(
        g, lambda lams: _semigroup_factors(zc, lams), 1.0, _semigroup_decay(zc)
    )


class ContourResult(NamedTuple):
    """``error_estimate`` is the relative L^2 move from the coarse rule to the
    fine one: no bound, as both rules share the rays' truncation."""

    profile: RadialProfile
    error_estimate: float


def _contour_nodes(lams: np.ndarray, s: float, step: float):
    """``(h, K, d, r, w)`` of the contour serving the eigenvalues ``lams`` of a
    symbol of decay exponent s at the field step alpha ln q.  The radius range
    is [min lams, max lams] padded by (log10(1/_RAY_TOL) + 2) / s decades, so
    the rays' truncation error is below _RAY_TOL relative; nodes r = e**(d h),
    h = step / (2K), K = ceil(step _NODES_PER_DECADE / ln 10), d = d0..d1 over
    the range rounded outward to even d; trapezoid weights in log r of step h
    (w[0]) and 2h on the even d (w[1]).  A range or node that is not a normal
    float raises :class:`QuadratureError`."""
    pad = (math.log10(1.0 / _RAY_TOL) + 2.0) / s
    lam_min, lam_max = float(lams.min()), float(lams.max())
    try:
        r0, r1 = lam_min * 10.0 ** (-pad), lam_max * 10.0**pad
    except OverflowError:
        r0 = r1 = math.inf
    if not (r0 > 0.0 and math.isfinite(r1)):
        span = f"[{lam_min:.3e}e-{pad:.0f}, {lam_max:.3e}e+{pad:.0f}]"
        raise QuadratureError(f"contour radius range {span} leaves the float range")
    K = math.ceil(step * _NODES_PER_DECADE / math.log(10.0))
    h = step / (2 * K)
    d0 = 2 * math.floor(math.log(r0) / (2 * h))
    d = np.arange(d0, max(2 * math.ceil(math.log(r1) / (2 * h)), d0 + 2) + 1)
    with np.errstate(over="ignore"):
        r = np.exp(h * d)
    if not (r[0] >= sys.float_info.min and r[-1] <= sys.float_info.max):
        span = f"e**[{h * d[0]:.1f}, {h * d[-1]:.1f}]"
        raise QuadratureError(f"contour nodes {span} leave the normal float range")
    w = np.zeros((2, d.size))
    w[0], w[1, ::2] = h, 2.0 * h
    w[:, [0, -1]] /= 2.0
    return h, K, d, r, w


def _contour_factors(
    params: FieldParams, kmin: int, lams: np.ndarray, sym: SymbolFunction, nu: float
) -> np.ndarray:
    """(1/(2 pi i)) int f(z)/(z - lam) dz over the sector rays at lams =
    q**(-m alpha), m = kmin.., by the fine and the coarse rule (rows 0, 1) on
    the nodes z = e**(d h -+ i nu) of :func:`_contour_nodes`: every d (fine)
    or the even d only (coarse).

    As dz = z du, a node of weight w carries w f(z) z / (z - lam) =
    w f(z) (1 - t e^{-+i nu}) E, t = lam / r, where
    E = 1 / ((t - cos nu)**2 + sin(nu)**2) <= 1 / sin(nu)**2 is the same on
    both rays and cannot cancel.  With cm, cp = w f(z) outward along -nu and
    inward along +nu, the integral at lam_j is
    sum_d ((cm - cp)_d - lam_j ((cm e^{-i nu} - cp e^{i nu}) / r)_d) E_jd.
    As t = e**(-(2K m + d) h), E is one vector over the lags 2K m + d, read
    as an (eigenvalues x nodes) matrix of row stride 2K: both rules are one
    real product.  Where the square overflows, E is 0 (below the floats).
    """
    h, K, d, r, w = _contour_nodes(lams, sym.decay[0], params.alpha * math.log(params.q))
    rot = cmath.exp(-1j * nu)
    fm, fp = np.broadcast_to(sym.fn(r * np.array([[rot], [rot.conjugate()]])), (2, r.size))
    a, b = fm - fp, (fm * rot - fp * rot.conjugate()) / r
    W = (w[:, None] * np.stack((a.real, a.imag, b.real, b.imag))).reshape(8, r.size)
    lags = np.arange(2 * K * kmin + d[0], 2 * K * (kmin + lams.size - 1) + d[-1] + 1)
    with np.errstate(over="ignore"):
        E = (np.exp(-h * lags) - math.cos(nu)) ** 2 + math.sin(nu) ** 2
    np.reciprocal(E, out=E)
    E = np.lib.stride_tricks.as_strided(E, (lams.size, r.size), (2 * K * E.itemsize, E.itemsize))
    R = (np.ascontiguousarray(E) @ W.T).T.reshape(2, 4, -1)
    return ((R[:, 0] + 1j * R[:, 1]) - lams * (R[:, 2] + 1j * R[:, 3])) / (2j * math.pi)


def hinf_apply_contour(sym: SymbolFunction, g: RadialProfile, nu: float = 0.5) -> ContourResult:
    """f(A) g by quadrature of resolvents on the boundary of the sector of
    half-angle nu, 0 < nu < sym.sector_angle.

    Counterclockwise boundary orientation: outward along arg z = -nu, inward
    along arg z = +nu, on the nodes of :func:`_contour_nodes`, which cover the
    spectrum padded per the symbol's decay.  The error estimate is the node
    doubling from the even d to all d, not a bound on the error against
    :func:`hinf_apply_direct`: ray truncation escapes it (1.0e-15 against an
    error of 2.9e-12 seen at q=2, n=1, alpha=1).  :class:`QuadratureError`
    is raised when it exceeds _CONTOUR_TOL (relative), or when the range or
    a node is not a normal float; WindowOverflowError, before the
    quadrature, when a window of either transform leaves the floats.
    """
    if not 0 < nu < sym.sector_angle:  # a NaN angle too
        raise ValueError(
            f"contour angle {nu} must lie inside the symbol sector (0, {sym.sector_angle})"
        )
    # same tail extension rule as the direct route, so both routes truncate
    # the constant Fourier tail identically
    ghat, lams = radial._extended_hat(g, sym.decay)

    hats = ghat.coeffs * _contour_factors(g.params, ghat.kmin, lams, sym, nu)
    kmin, kmax, out, tails = radial._fourier_block(g.params, ghat.kmin, ghat.kmax, hats)
    prof = RadialProfile(g.params, kmin, kmax, out[0], tail=tails[0])
    rows = np.stack((out[0] - out[1], out[0]))
    diff, scale = radial._lp_norms(g.params, kmin, kmax, rows, [tails[0] - tails[1], tails[0]], 2)
    scale = max(scale, 1e-300)
    if diff > _CONTOUR_TOL * scale:
        raise QuadratureError(
            f"contour quadrature not converged: node doubling moved the "
            f"result by {diff / scale:.3e} (tol {_CONTOUR_TOL})"
        )
    return ContourResult(prof, diff / scale)


@functools.lru_cache(maxsize=_G_CACHE)
def _toeplitz_kernel(phi: SymbolFunction, step: float) -> tuple[np.ndarray, float]:
    """G(d) = int_0^oo phi(u) conj(phi(u e**(-d step))) du/u, read-only, on
    every lag that can be nonzero, d = 0..2 half // K (past it G is 0), and
    one bound on every error.  G(d) = h sum_i v_i conj(v_{i-dK}), summed by
    halving, of v_i = phi(e**(i h)), |i| <= half = ceil(S / h), h = step / K.
    With (s, C) the decay certificate and eps = _G_EPS, the bound adds
    - discretisation: on |Im log u| < a = 0.99 sector_angle the integrand is
      below C**2 min(|u|**s, |u|**-s), so the trapezoid rule errs by at most
      (4 C**2 / s) / (e**(2 pi a / h) - 1) <= eps, K being the least with
      h <= 2 pi a / ln(4 C**2 / (s eps) + 1) (Trefethen and Weideman, SIAM
      Review 56, 2014);
    - truncation: each dropped term has a factor past |log u| = S =
      ln(2 C**2 / (s eps)) / s, so they sum to at most eps (all of G(d) when
      d step > 2 S, where it is 0);
    - roundoff: (log2(width) + 8) units of 2**-53 of G(0), which bounds
      h sum |v_i v_{i-dK}| (Cauchy-Schwarz).
    A node e**(+-S) past the normal floats raises :class:`QuadratureError`.
    """
    s, C = phi.decay
    a = 0.99 * phi.sector_angle
    K = math.ceil(step * math.log(4 * C * C / (s * _G_EPS) + 1) / (2 * math.pi * a))
    h, S = step / K, math.log(2 * C * C / (s * _G_EPS)) / s
    half = math.ceil(S / h)
    if half * h >= -math.log(sys.float_info.min):
        raise QuadratureError(f"square-function nodes e**(+-{half * h:.1f}) leave the float range")
    v = np.zeros(1 << (2 * half).bit_length(), dtype=complex)  # zero past the nodes
    v[: 2 * half + 1] = phi.fn(np.exp(h * np.arange(-half, half + 1)))
    D, rows = 2 * half // K, max(1, _BLOCK_ELEMS // v.size)
    lagged = np.lib.stride_tricks.sliding_window_view(np.pad(v, (0, D * K)), v.size)[::K]
    G = np.zeros(D + 1, dtype=complex)
    for d in range(0, D + 1, rows):
        P = lagged[d : d + rows] * v.conj()
        while P.shape[1] > 1:
            P = P[:, : P.shape[1] // 2] + P[:, P.shape[1] // 2 :]
        G[d : d + len(P)] = h * P[:, 0]
    G.flags.writeable = False
    return G, 2.0**-53 * (math.log2(v.size) + 8) * G[0].real + 2 * _G_EPS


def square_function(
    g: RadialProfile, phi: SymbolFunction, p: float | Sequence[float] = 2.0
) -> float | list[float]:
    """L^p norm of the square function (int_0^oo |phi(t A) g|**2 dt/t)**(1/2)
    of g, or for a tuple, list or array ``p`` the list of its norms; each p >= 1.

    On the extended Fourier window [K0, K1], with b_k = mu(S_k) ghat_k and
    e_s = -q**(-n s) ghat_{s-1} = b_{s-1} / (1 - q**n), the output crown
    j = -s is sum_{k >= s} b_k phi(t lam_k) + e_s phi(t lam_{s-1}); the inner
    tail equals the crown -K0.  Its energy is thus exact up to the bound of
    the Toeplitz kernel G (memoised, :func:`_toeplitz_kernel`): with Q_{K1+1} = 0,
    v_s = sum_{l > s} G(l - s) conj(b_l) and Q_s = Q_{s+1} + |b_s|**2 G(0) +
    2 Re(b_s v_s), it is Q_s + 2 Re(e_s v_{s-1}) + |e_s|**2 G(0).
    """
    seq = isinstance(p, (tuple, list, np.ndarray))
    ps = [float(x) for x in p] if seq else [float(p)]
    if not ps or not all(x >= 1 for x in ps):
        raise ValueError(f"p must be one value >= 1 or a nonempty sequence of them, got {p!r}")
    ghat = radial._extended_hat(g, phi.decay)[0]
    K0, K1, params, m = ghat.kmin, ghat.kmax, g.params, ghat.coeffs.size
    Gd = _toeplitz_kernel(phi, params.alpha * math.log(params.q))[0][: m + 1]
    (G, v, e), Q = np.zeros((3, m + 1), complex), np.zeros(m + 1)
    G[: Gd.size] = Gd
    b = ghat.coeffs * radial._sphere_measures(params.q, params.n, K0, K1)
    # v[i] = v_s and e[i] = e_{s+1} for s = K0 - 1 + i; e_{K0} = 0
    v[:m] = np.correlate(b.conj(), G[1:].conj(), "full")[m - 1 :]
    np.divide(b, 1.0 - float(params.q) ** params.n, out=e[1:])
    np.cumsum((np.abs(b) ** 2 * G[0] + 2.0 * b * v[1:]).real[::-1], out=Q[m - 1 :: -1])
    root = np.sqrt(np.maximum(Q + (2.0 * e * v + np.abs(e) ** 2 * G[0]).real, 0.0))
    norms = [radial._lp_norms(params, -K1 - 1, -K0, root[None, ::-1], root[:1], x)[0] for x in ps]
    return norms if seq else norms[0]


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
    Deterministic given the seed, drawn trial by trial.  Up to
    ``_BLOCK_ROWS // len(family)`` trials are one forward transform block, a
    row per (trial, z), on the Fourier window of the deepest row extension:
    every decay is (1, |z|), so that of the row with the largest |z| |tail| /
    max(1, |tail|).  The factor rows exp(-z lam) and the weights
    eps_j cos(arg z_j) multiply into its (trials, z, crowns) view by
    broadcasting.  The transform is linear, so the numerator's sum over j, of
    rows and inner tails, runs on the Fourier side and the back transform has
    a row per trial; every sum over j adds the z rows in family order.
    """
    kmin, kmax = window
    if trials < 1 or kmin > kmax:
        raise ValueError(f"need at least one trial and a crown window, got {trials}, {window}")
    if not p >= 1:  # a NaN p too, refused before any transform
        raise ValueError(f"p must be >= 1, got {p}")
    zs = [_finite_time(z) for z in family]
    if not zs or any(not z.real > 0 for z in zs):
        raise ValueError("need a nonempty family with Re z > 0 at every point")
    coss = np.array([z.real / abs(z) for z in zs])
    mods = np.array([_semigroup_decay(z)[1] for z in zs])
    zcol = np.array(zs)[:, None]
    rng = np.random.default_rng(seed)
    nz, m = len(zs), kmax - kmin + 1
    chunk = max(1, _BLOCK_ROWS // nz)
    best = 0.0
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        eps, draws = np.empty((count, nz)), np.empty((count, nz, 2, m))  # re, im parts
        for i in range(count):
            eps[i] = rng.integers(0, 2, size=nz) * 2 - 1
            rng.standard_normal(out=draws[i])
        gs = draws[:, :, 0] + 1j * draws[:, :, 1]
        hkmin, hkmax, hats, htails = radial._fourier_block(params, kmin, kmax, gs.reshape(-1, m))
        sizes = np.abs(htails).reshape(count, nz)
        k = int(np.argmax(mods * sizes / np.maximum(1.0, sizes)))
        top = radial._hat_depth(params, hkmax, float(sizes.flat[k]), _semigroup_decay(zs[k % nz]))
        hats, lams = radial._extend(params, hkmin, hkmax, hats, htails, hkmin, top)
        rows = hats.reshape(count, nz, -1)  # a view: factors and weights multiply in by broadcast
        rows *= _semigroup_factors(zcol, lams)
        weights = eps * coss
        rows *= weights[:, :, None]
        # the axis-1 reduce and the cumsum add the z rows in family order (a reduce
        # over the contiguous axis pairs them); the last output crown is the inner tail
        wtails = np.cumsum(weights * htails.reshape(count, nz), axis=1)[:, -1]
        okmin, okmax, num, _ = radial._fourier_block(params, hkmin, top, rows.sum(axis=1), wtails)
        den = (eps[:, :, None] * gs).sum(axis=1)
        dvals = radial._lp_norms(params, kmin, kmax, den, np.zeros(count), p)
        nvals = radial._lp_norms(params, okmin, okmax, num, num[:, -1], p)
        best = max([best] + [nv / dv for nv, dv in zip(nvals, dvals) if dv > 0])
    return best

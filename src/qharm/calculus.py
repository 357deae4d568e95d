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
from .radial import LOG_FLOOR, RadialProfile, _finite_time, fourier_multiplier_apply, lp_norm

_BLOCK_ROWS = 256  # rows per Rademacher transform block, which bounds its memory
_BLOCK_ELEMS = 1 << 18  # entries per lag block of the Toeplitz kernel G
_G_EPS = 1e-17  # discretisation and truncation budget of each G(d)
_G_CACHE = 32  # entries each memo below keeps: G per (symbol, step), a contour rule per angle too
_CONTOUR_EPS = 1e-14  # quadrature budget of each contour factor, per unit of ||g||_2
_CONTOUR_TOL = 1e-6  # relative error bound the contour route accepts
_CONTOUR_NODES = 1 << 16  # most nodes a contour rule may have


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


def semigroup_apply(z, g: RadialProfile) -> RadialProfile:
    """T_z g: multiply the Fourier crown m by exp(-z * lam_m), Re z > 0."""
    zc = _finite_time(z)
    if not zc.real > 0 and zc != 0:
        raise ValueError(f"semigroup time needs Re z > 0 (or z = 0), got {z}")
    return fourier_multiplier_apply(
        g, lambda lams: _semigroup_factors(zc, lams), 1.0, _semigroup_decay(zc)
    )


class ContourResult(NamedTuple):
    """``bound`` certifies ||profile - hinf_apply_direct(sym, g)||_2 up to
    roundoff: the rule's bound on every factor times ||g||_2, by Plancherel."""

    profile: RadialProfile
    bound: float


def _contour_nodes(decay, theta: float, nu: float, step: float, eps: float):
    """``(h, K, D, bound)``: nodes r = e**(d h), d = -D..D, of weight h = step / K
    (on the eigenvalue lattice of the field step alpha ln q) on the rays
    arg z = -+nu, and a bound on the error of (1/(2 pi i)) int f(z)/(z - lam) dz
    at every lam > 0, for |f(z)| <= C min(|z|**s, |z|**-s), ``decay = (s, C)``,
    on the sector of half-angle theta.  As |z/(z - lam)| <= 1/sin(min(|arg z|, pi/2)):
    - truncation: the nodes past either end sum to at most
      C e**(-s D h) / (pi s sin nu); D is the least that makes this eps / 4;
    - discretisation: on the strip |Im log r| < a < min(nu, theta - nu) a ray's
      integrand has an L^1 norm of at most M = 2 C / (s sin(nu - a)), so the
      rule errs by at most (2 M / pi) / (e**(2 pi a / h) - 1) (Trefethen and
      Weideman, SIAM Review 56, 2014, Thm 5.1); K is the least that makes this
      eps / 2 at some a of a grid, and the bound takes the best a.
    A radius range or node that is not a normal float, or more than
    _CONTOUR_NODES nodes, raises :class:`QuadratureError` before any array."""
    s, C = decay
    sin_nu = math.sin(min(nu, math.pi / 2))
    a = min(nu, theta - nu) * np.arange(1, 64) / 64
    M = 2 * C / (s * np.sin(np.minimum(nu - a, math.pi / 2)))
    K = math.ceil(step * np.min(np.log1p(4 * M / (math.pi * eps)) / a) / (2 * math.pi))
    h, u0 = step / K, min(0.0, math.log(eps * math.pi * s * sin_nu / (4 * C)) / s)
    lo = math.log(sys.float_info.min)  # e**(D h) <= e**(-lo) is a float too
    if not u0 >= lo:
        raise QuadratureError(f"contour radius range e**(+-{-u0:.1f}) leaves the normal floats")
    D = math.ceil(-u0 / h)
    if D * h > -lo:
        raise QuadratureError(f"contour nodes e**(+-{D * h:.1f}) leave the normal floats")
    if 2 * D >= _CONTOUR_NODES:
        msg = f"contour angle {nu} in the sector of half-angle {theta} needs {2 * D + 1} nodes"
        raise QuadratureError(f"{msg} (cap {_CONTOUR_NODES})")
    with np.errstate(over="ignore"):
        strip = np.min(2 * M / math.pi / np.expm1(2 * math.pi * a / h))
    return h, K, D, 2 * C * math.exp(-s * D * h) / (math.pi * s * sin_nu) + float(strip)


@functools.lru_cache(maxsize=_G_CACHE)
def _contour_rule(sym: SymbolFunction, nu: float, step: float, eps: float):
    """``(h, K, D, W, bound)`` of :func:`_contour_nodes`, memoised per symbol,
    angle, field step and budget.  As dz = z du, a node carries
    h f(z) z / (z - lam) = h f(z) (1 - t e^{-+i nu}) E, t = lam / r, where
    E = 1 / ((t - cos nu)**2 + sin(nu)**2) is the same on both rays.  With
    cm, cp = h f(z) outward along -nu and inward along +nu, the integral at lam
    is sum_d ((cm - cp)_d - lam ((cm e^{-i nu} - cp e^{i nu}) / r)_d) E_d: the
    read-only real (nodes x 4) W holds the parts of the two sequences."""
    h, K, D, bound = _contour_nodes(sym.decay, sym.sector_angle, nu, step, eps)
    r = np.exp(h * np.arange(-D, D + 1))
    rot = cmath.exp(-1j * nu)
    fm, fp = np.broadcast_to(sym.fn(r * np.array([[rot], [rot.conjugate()]])), (2, r.size))
    a, b = h * (fm - fp), h * (fm * rot - fp * rot.conjugate()) / r
    W = np.stack((a.real, a.imag, b.real, b.imag), axis=1)
    W.flags.writeable = False
    return h, K, D, W, bound


def _contour_factors(rule, kmin: int, lams: np.ndarray, nu: float) -> np.ndarray:
    """The rule's integral at lams = q**(-m alpha), m = kmin..: as
    t = e**(-(K m + d) h), E is one vector over the lags K m + d (0 where its
    square overflows), read as an (eigenvalues x nodes) matrix of row stride K
    and multiplied by W in row blocks of at most _BLOCK_ELEMS entries."""
    h, K, D, W, _ = rule
    lags = np.arange(K * kmin - D, K * (kmin + lams.size - 1) + D + 1)
    with np.errstate(over="ignore"):
        E = (np.exp(-h * lags) - math.cos(nu)) ** 2 + math.sin(nu) ** 2
    np.reciprocal(E, out=E)
    E = np.lib.stride_tricks.as_strided(E, (lams.size, 2 * D + 1), (K * E.itemsize, E.itemsize))
    R, rows = np.empty((lams.size, 4)), max(1, _BLOCK_ELEMS // (2 * D + 1))
    for j in range(0, lams.size, rows):
        np.matmul(np.ascontiguousarray(E[j : j + rows]), W, out=R[j : j + rows])
    return ((R[:, 0] + 1j * R[:, 1]) - lams * (R[:, 2] + 1j * R[:, 3])) / (2j * math.pi)


def hinf_apply_contour(sym: SymbolFunction, g: RadialProfile, nu: float = 0.5) -> ContourResult:
    """f(A) g by quadrature of resolvents on the boundary of the sector of
    half-angle nu, 0 < nu < sym.sector_angle, counterclockwise (outward along
    arg z = -nu, inward along +nu), on the rule of :func:`_contour_rule` sized
    from the symbol's decay certificate alone to _CONTOUR_EPS per eigenvalue:
    :func:`fourier_multiplier_apply` with the rule's factors as its symbol.
    :class:`QuadratureError` is raised when the bound exceeds _CONTOUR_TOL
    times ||result||_2, or the rule is refused; WindowOverflowError, before
    the quadrature, when a window of either transform leaves the floats.
    """
    if not 0 < nu < sym.sector_angle:  # a NaN angle too
        raise ValueError(
            f"contour angle {nu} must lie inside the symbol sector (0, {sym.sector_angle})"
        )
    step = g.params.alpha * math.log(g.params.q)
    rule = functools.partial(_contour_rule, sym, nu, step, _CONTOUR_EPS)
    # the symbol fetches the rule, so every window check comes first
    prof = fourier_multiplier_apply(
        g, lambda lams: _contour_factors(rule(), -g.kmax - 1, lams, nu), 0.0, sym.decay
    )
    bound, scale = rule()[-1] * lp_norm(g, 2), max(lp_norm(prof, 2), 1e-300)
    if bound > _CONTOUR_TOL * scale:
        msg = f"its bound is {bound / scale:.3e} of the result (tol {_CONTOUR_TOL})"
        raise QuadratureError(f"contour quadrature not certified: {msg}")
    return ContourResult(prof, bound)


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
    K0, K1, ghat, _, _ = radial._extended_hat(g, phi.decay)
    params, m = g.params, ghat.size
    Gd = _toeplitz_kernel(phi, params.alpha * math.log(params.q))[0][: m + 1]
    (G, v, e), Q = np.zeros((3, m + 1), complex), np.zeros(m + 1)
    G[: Gd.size] = Gd
    b = ghat * radial._sphere_measures(params.q, params.n, K0, K1)
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
        bits, draws = np.empty((count, nz)), np.empty((count, nz, 2, m))  # re, im parts
        for i in range(count):
            bits[i] = rng.integers(0, 2, size=nz)
            rng.standard_normal(out=draws[i])
        eps = bits * 2.0 - 1.0
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

"""Crown-indexed radial functions on K^n and their exact Fourier calculus.

A radial function is constant on every crown S_k = {||x|| = q**(-k)}.  A
:class:`RadialProfile` stores the crown values c_k on a finite window
[kmin, kmax], is identically zero on the outer crowns k < kmin, and takes a
single constant value (``tail``) on every inner crown k > kmax, i.e. on the
punctured ball around 0.  Ball indicators, the basic test functions, are
profiles with tail 1.

The radial Fourier transform is an exact linear map on crown coefficients:
with T_m = sum_{k >= m} c_k mu(S_k) (inner tail folded in as a geometric
series), the transform at the output crown j is

    (Ff)_j = T_{-j} - c_{-j-1} * q**(n*j),

computed in one pass via suffix sums, for a block of rows on one window.
Forward and inverse coincide on radial inputs because every sphere-character
integral is real.  The output window is [-kmax-1, -kmin] with inner tail
equal to the improper integral of f, so the representable class is closed
under the transform; a window whose outermost crown weight q**(-n*kmin)
leaves the float range raises WindowOverflowError.

Fourier multipliers act on the eigenvalues lam_m = q**(-m*alpha) of the
Taibleson operator.  Every multiplier route (the H-infinity calculus,
square functions, the Rademacher witness, the master-equation solver)
pads its transformed rows and builds lam in one place, which refuses a
window whose crown weight or top eigenvalue q**(-alpha*kmin) is no finite
float, and extends the Fourier window by one rule; the one-profile routes
also refuse a back-transform window of that kind.  The constant Fourier
tail meets eigenvalues tending to 0, on which the multiplier is not
constant.  If the tail times the multiplier moves from its lam -> 0 limit
by at most lip * lam**s, the window is extended to the first crown with
lam <= (eps / lip)**(1/s), so the residual beyond it is below eps (1e-16,
times the tail when that exceeds 1 on the multiplier routes).  An
extension past ``MAX_EXT`` crowns, or a cut-off eigenvalue that underflows
to 0 or below the normal float range, raises :class:`WindowOverflowError`.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import WindowOverflowError
from .field import FieldParams, _float_qpow

# absolute floor the residual of the constant Fourier tail must fall below
_TAIL_EPS = 1e-16
LOG_FLOOR = -745.0  # exp() underflows to 0 below this
MAX_EXT = 20000  # most crowns a window extension may add


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial function: crown values on [kmin, kmax], constant inner tail."""

    params: FieldParams
    kmin: int
    kmax: int
    coeffs: np.ndarray
    tail: complex = 0.0 + 0.0j

    def __post_init__(self) -> None:
        if self.kmin > self.kmax:
            raise ValueError(f"empty crown window [{self.kmin}, {self.kmax}]")
        arr = np.array(self.coeffs, dtype=np.complex128)  # a copy, made read-only
        if arr.shape != (self.kmax - self.kmin + 1,):
            msg = f"expected {self.kmax - self.kmin + 1} crown values, got shape {arr.shape}"
            raise ValueError(msg)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "tail", complex(self.tail))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, params: FieldParams, kmin: int, kmax: int) -> "RadialProfile":
        return cls(params, kmin, kmax, np.zeros(kmax - kmin + 1, dtype=complex))

    @classmethod
    def ball_indicator(cls, params: FieldParams, k: int) -> "RadialProfile":
        """Indicator of G_k = {||x|| <= q**(-k)}."""
        return cls(params, k, k, np.array([1.0 + 0.0j]), tail=1.0)

    @classmethod
    def sphere_indicator(cls, params: FieldParams, k: int) -> "RadialProfile":
        """Indicator of the single crown S_k."""
        return cls(params, k, k, np.array([1.0 + 0.0j]))

    # -- access ---------------------------------------------------------------

    def value_at(self, k: int) -> complex:
        if k < self.kmin:
            return 0.0 + 0.0j
        if k > self.kmax:
            return self.tail
        return complex(self.coeffs[k - self.kmin])

    def padded(self, kmin: int, kmax: int) -> "RadialProfile":
        """Same function on an enlarged window (0 outward, tail inward)."""
        if kmin > self.kmin or kmax < self.kmax:
            raise ValueError("padded window must contain the current one")
        row = _pad(self.kmin, self.kmax, self.coeffs[None, :], np.array([self.tail]), kmin, kmax)
        return RadialProfile(self.params, kmin, kmax, row[0], tail=self.tail)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return _sum(self, other, other.coeffs, other.tail)

    def __sub__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        # -other on its own window, so that its outer zeros pad as +0.0
        return _sum(self, other, (-1.0) * other.coeffs, (-1.0) * other.tail)

    def __rmul__(self, c: complex) -> "RadialProfile":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return RadialProfile(
            self.params, self.kmin, self.kmax, c * self.coeffs, tail=c * self.tail
        )

    __mul__ = __rmul__


def _sum(f: RadialProfile, g: RadialProfile, gc: np.ndarray, gt: complex) -> RadialProfile:
    """f plus the values gc, inner tail gt, on g's window, both padded to the
    union crown window as :meth:`RadialProfile.padded` pads: the one profile built."""
    if f.params != g.params:
        raise ValueError("profiles live on different fields")
    lo, hi = min(f.kmin, g.kmin), max(f.kmax, g.kmax)
    fc, gc = (
        c if (h.kmin, h.kmax) == (lo, hi)
        else _pad(h.kmin, h.kmax, c[None, :], np.array([t]), lo, hi)[0]
        for h, c, t in ((f, f.coeffs, f.tail), (g, gc, gt))
    )
    return RadialProfile(f.params, lo, hi, fc + gc, tail=f.tail + gt)


def align(f: RadialProfile, g: RadialProfile) -> tuple[RadialProfile, RadialProfile]:
    """Pad both profiles to the union crown window; profiles on one window
    come back as they are."""
    if f.params != g.params:
        raise ValueError("profiles live on different fields")
    if (f.kmin, f.kmax) == (g.kmin, g.kmax):
        return f, g
    kmin = min(f.kmin, g.kmin)
    kmax = max(f.kmax, g.kmax)
    return f.padded(kmin, kmax), g.padded(kmin, kmax)


# one power table per (q, step, scale) over its whole span: a round of perfbench's
# diagonal op set uses 9 keys (13,577 floats), of wide_kernel_lattice 18 (55,410)
_QPOW_LOG2 = (-1100, 1023)  # log2 q**e of a table's powers: below, 0; above, maybe inf
_MAX_SPAN = 16384  # most crowns of a table; the widest used spans 8,493 (q = 2, step 1/4)


def _powers(q: int, step, lo: int, hi: int, scale) -> np.ndarray:
    table = scale * np.power(float(q), step * np.arange(lo, hi + 1, dtype=float))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _power_span(q: int, step, scale) -> tuple[int, np.ndarray] | None:
    """(first k, scale * q**(step*k)) over every k with q**(step*k) in
    2**_QPOW_LOG2, read-only, or None when that span exceeds _MAX_SPAN crowns."""
    down, up = sorted(x / (step * math.log2(q)) for x in _QPOW_LOG2)
    first, last = math.ceil(down), math.floor(up)
    return (first, _powers(q, step, first, last, scale)) if last - first < _MAX_SPAN else None


def _qpow_table(q: int, step, lo: int, hi: int, scale=1.0, what="crown weight") -> np.ndarray:
    """scale * q**(step*k), k = lo..hi, each the np.power of its own exponent,
    read-only: a slice of :func:`_power_span`, else computed afresh, and kept
    nowhere, after WindowOverflowError for a largest power past the floats."""
    span = _power_span(q, step, scale)
    if span and span[0] <= lo <= hi < span[0] + span[1].size:  # no power in it is inf
        return span[1][lo - span[0] : hi + 1 - span[0]]
    _float_qpow(q, step * (hi if step > 0 else lo), what)
    return _powers(q, step, lo, hi, scale)


def _sphere_measures(q: int, n: int, kmin: int, kmax: int) -> np.ndarray:
    """mu(S_k) for k = kmin..kmax, read-only; raises :class:`WindowOverflowError`,
    on every call, when the largest, ~q**(-n*kmin), also a transform's
    largest output weight, is inf."""
    return _qpow_table(q, -n, kmin, kmax, 1.0 - float(q) ** (-n))


def _ball_measure(q: int, n: int, k: int) -> float:
    """mu(G_k) as a float, correctly rounded: int true division, as
    ``float(qpow(q, -k * n))`` divides."""
    e = -k * n
    return q**e / 1 if e >= 0 else 1 / q**-e


def improper_integral(f: RadialProfile) -> complex:
    """Crown-sum integral; the inner tail contributes tail * mu(G_{kmax+1})."""
    q, n = f.params.q, f.params.n
    total = np.sum(f.coeffs * _sphere_measures(q, n, f.kmin, f.kmax))
    total += f.tail * _ball_measure(q, n, f.kmax + 1)
    return complex(total)


# a p-th power past the floats, or one times an underflowed measure (inf * 0),
# only sends its row to be summed again; as a decorator, per call, the error
# state costs half what a with-block does
@np.errstate(over="ignore", invalid="ignore")
def _lp_norms(
    params: FieldParams, kmin: int, kmax: int, C: np.ndarray, tails, p: float
) -> list[float]:
    """L^p norms, 1 <= p <= inf, of the rows of C with inner tails ``tails``.
    A row whose sum of p-th powers is no positive normal float is summed
    again by :func:`_lp_norm_scaled`."""
    tails = np.asarray(tails).tolist()
    if p == math.inf:
        return [max(float(s), abs(t)) for s, t in zip(np.max(np.abs(C), axis=-1), tails)]
    if not p >= 1:  # a NaN p too
        raise ValueError(f"p must be >= 1, got {p}")
    mu = _sphere_measures(params.q, params.n, kmin, kmax)
    totals = (np.abs(C) ** p * mu).sum(axis=-1).tolist()
    ball = _ball_measure(params.q, params.n, kmax + 1)
    norms = []
    for i, (s, t) in enumerate(zip(totals, tails)):
        try:
            s += abs(t) ** p * ball
        except OverflowError:  # |t|**p past the floats
            s = math.inf
        if sys.float_info.min <= s < math.inf:
            norms.append(s ** (1.0 / p))
        else:
            norms.append(_lp_norm_scaled(params, kmin, C[i], t, p))
    return norms


def _lp_norm_scaled(params: FieldParams, kmin: int, c: np.ndarray, t: complex, p: float) -> float:
    """The L^p norm of one row c on crowns kmin.. with inner tail t, summed
    over its largest |c| and the outermost measure, so that no term leaves the
    floats; a norm past the floats raises WindowOverflowError."""
    q, n = params.q, params.n
    a = np.abs(c)
    top = max(float(a.max()), abs(t))
    if top == 0.0:
        return 0.0
    # mu(S_k) and mu(G_{kmax+1}) over q**(-kmin n), the ball's last
    rel = np.power(float(q), -n * np.arange(len(c) + 1, dtype=float))
    rel[:-1] *= 1.0 - float(q) ** -n
    s = float(((a / top) ** p * rel[:-1]).sum() + (abs(t) / top) ** p * rel[-1])
    root = (float(q) ** (-kmin * n / 2)) ** (1.0 / p)  # q**(-kmin n / p) in two factors
    norm = top * s ** (1.0 / p) * root * root
    if not norm < math.inf:
        raise WindowOverflowError(f"L^{p:g} norm on crowns from {kmin} at q={q} is no float")
    return norm


def lp_norm(f: RadialProfile, p: float) -> float:
    """L^p norm, 1 <= p <= inf, with the inner tail summed in closed form."""
    return _lp_norms(f.params, f.kmin, f.kmax, f.coeffs[None, :], [f.tail], p)[0]


def _fourier_block(params: FieldParams, kmin: int, kmax: int, C: np.ndarray, tails=None):
    """Transform every row of the (rows, crowns) block C on [kmin, kmax], row
    i with inner tail tails[i] (default 0); returns ``(out_kmin, out_kmax,
    OUT, out_tails)``, out_tails a view of OUT's last crown.  Each row equals
    its one-row transform bit for bit."""
    q, n = params.q, params.n
    mu = _sphere_measures(q, n, kmin, kmax)  # the range check, before the ball measure
    top = 0.0 if tails is None else tails[:, None] * _ball_measure(q, n, kmax + 1)
    # column i, crown j = i - kmax - 1: T_{-j} - c_{-j-1} q**(n j), over C reversed
    rev, OUT = C[:, ::-1], np.empty((len(C), kmax - kmin + 2), dtype=complex)
    S = OUT[:, 1:]
    np.add.accumulate(np.multiply(rev, mu[::-1], out=S), axis=1, out=S)
    OUT[:, :1] = top
    S += top  # + 0.0 too: a -0.0 suffix sum becomes +0.0
    OUT[:, :-1] -= rev * _qpow_table(q, n, -kmax - 1, -kmin - 1)  # q**(n j), j < -kmin
    return -kmax - 1, -kmin, OUT, OUT[:, -1]


def radial_fourier(f: RadialProfile) -> RadialProfile:
    """Radial Fourier transform via suffix sums; an involution on profiles,
    so it is its own inverse."""
    kmin, kmax, out, tails = _fourier_block(
        f.params, f.kmin, f.kmax, f.coeffs[None, :], np.array([f.tail])
    )
    return RadialProfile(f.params, kmin, kmax, out[0], tail=complex(tails[0]))


def convolve(g: RadialProfile, f: RadialProfile) -> RadialProfile:
    """Convolution via the Fourier route: F^{-1}(Fg * Ff), on the transformed
    arrays until the one output profile; a product or back transform past
    the float range raises WindowOverflowError."""
    if f.params != g.params:
        raise ValueError("profiles live on different fields")
    params = g.params
    hats = [_fourier_block(params, h.kmin, h.kmax, h.coeffs[None, :], np.array([h.tail]))
            for h in (g, f)]
    kmin, kmax = min(b[0] for b in hats), max(b[1] for b in hats)
    (gh, gt), (fh, ft) = [(_pad(*b, kmin, kmax)[0], complex(b[3][0])) for b in hats]
    with np.errstate(over="ignore", invalid="ignore"):
        okmin, okmax, out, otails = _fourier_block(
            params, kmin, kmax, (gh * fh)[None, :], np.array([gt * ft])
        )
    if not np.isfinite(out).all():
        msg = f"convolution product on Fourier crowns [{kmin}, {kmax}] leaves the float range"
        raise WindowOverflowError(msg)
    return RadialProfile(params, okmin, okmax, out[0], tail=complex(otails[0]))


def convolve_direct(g: RadialProfile, f: RadialProfile) -> RadialProfile:
    """Direct double-crown-sum convolution, the oracle for :func:`convolve`.

    Only supports zero inner tails (finite crown support).  For s on crown j
    the three contributions are t on larger crowns (f seen at t's crown),
    t on smaller crowns (f seen at s's crown), and the equal-crown piece,
    where s - t sweeps G_j minus one coset of G_{j+1}.
    """
    if g.tail != 0 or f.tail != 0:
        raise ValueError("direct convolution oracle requires zero inner tails")
    gp, fp = align(g, f)
    q, n = gp.params.q, gp.params.n
    smeas = _sphere_measures(q, n, gp.kmin, gp.kmax)
    gball = _qpow_table(q, -n, gp.kmin + 1, gp.kmax + 1)
    gc, fc = gp.coeffs, fp.coeffs

    cross = gc * fc * smeas
    prefix_cross = np.concatenate(([0.0 + 0.0j], np.cumsum(cross)[:-1]))
    sufg = np.concatenate((np.cumsum((gc * smeas)[::-1])[::-1][1:], [0.0 + 0.0j]))
    suff = np.concatenate((np.cumsum((fc * smeas)[::-1])[::-1][1:], [0.0 + 0.0j]))
    out = prefix_cross + fc * sufg + gc * (suff + fc * (smeas - gball))
    return RadialProfile(gp.params, gp.kmin, gp.kmax, out, tail=complex(np.sum(cross)))


def majorant(f: RadialProfile) -> RadialProfile:
    """Radially decreasing majorant: running sup of |c| from the outside in."""
    run = np.maximum.accumulate(np.abs(f.coeffs))
    tail = max(float(run[-1]) if run.size else 0.0, abs(f.tail))
    return RadialProfile(f.params, f.kmin, f.kmax, run, tail=tail)


def _finite_time(z) -> complex:
    """z as a complex semigroup time; a NaN or infinite part raises ValueError."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise ValueError(f"semigroup time must be finite, got {z}")
    return zc


def _extension_depth(
    params: FieldParams, kmax: int, lip: float, s: float = 1.0, eps: float = _TAIL_EPS
) -> int:
    """Last Fourier crown to keep so that lip * lam**s < eps beyond it."""
    if lip <= 0:
        return kmax
    try:
        lam_cut = (eps / lip) ** (1.0 / s)
    except OverflowError:  # the cut-off lies above every eigenvalue
        return kmax
    if lam_cut < sys.float_info.min:  # 0 or subnormal: 1 / lam_cut overflows
        raise WindowOverflowError(
            f"tail cut-off eigenvalue {lam_cut} underflows (decay exponent {s})"
        )
    m_cut = math.ceil(math.log(1.0 / lam_cut) / (params.alpha * math.log(params.q)))
    ext_to = max(kmax, m_cut)
    if ext_to - kmax > MAX_EXT:
        raise WindowOverflowError(
            f"tail extension needs {ext_to - kmax} crowns (cap {MAX_EXT})"
        )
    return ext_to


def _hat_depth(params: FieldParams, kmax: int, tail: float, decay) -> int:
    """Last Fourier crown to keep for an inner tail of size ``tail`` under a
    multiplier within C * lam**s of its lam -> 0 limit, ``decay = (s, C)``."""
    s, C = decay
    return _extension_depth(params, kmax, C * tail, s, _TAIL_EPS * max(1.0, tail))


def _pad(kmin: int, kmax: int, OUT: np.ndarray, tails, lo: int, hi: int) -> np.ndarray:
    """The rows of the block OUT on [kmin, kmax], row i with inner tail
    tails[i], padded to [lo, hi]: 0 outward, the tail inward."""
    H = np.empty((OUT.shape[0], hi - lo + 1), dtype=complex)
    H[:, : kmin - lo] = 0.0
    H[:, kmin - lo : kmax - lo + 1] = OUT
    H[:, kmax - lo + 1 :] = tails[:, None]
    return H


def _extend(params: FieldParams, kmin: int, kmax: int, OUT: np.ndarray, tails, lo: int, hi: int):
    """``(H, lams)``: the transformed block OUT :func:`_pad`-ded to [lo, hi],
    and lams = q**(-m*alpha) on [lo, hi].  A crown weight or top eigenvalue
    past the float range raises WindowOverflowError first."""
    _float_qpow(params.q, -params.n * lo)
    H = _pad(kmin, kmax, OUT, tails, lo, hi)
    return H, _qpow_table(params.q, -params.alpha, lo, hi, what="eigenvalue")


def _extended_hat(f: RadialProfile, decay):
    """``(kmin, hi, row, tail, lams)``: f's transform padded to [kmin, hi] per
    :func:`_hat_depth`, its tail and lams; the back window [-hi-1, -kmin] is checked too."""
    params, tails = f.params, np.array([f.tail])
    kmin, kmax, out, tails = _fourier_block(params, f.kmin, f.kmax, f.coeffs[None, :], tails)
    tail = complex(tails[0])
    hi = _hat_depth(params, kmax, abs(tail), decay)
    H, lams = _extend(params, kmin, kmax, out, tails, kmin, hi)
    _float_qpow(params.q, -params.n * (-hi - 1))
    return kmin, hi, H[0], tail, lams


def fourier_multiplier_apply(
    f: RadialProfile, symbol, limit_at_zero: complex = 0.0, decay: tuple[float, float] = (1.0, 1.0)
) -> RadialProfile:
    """Apply a Fourier multiplier evaluated at the eigenvalues q**(-m*alpha).

    ``symbol`` is called once, on the ndarray of the positive eigenvalues
    lam_m = ||xi||**alpha of the extended Fourier window, and returns the
    factors elementwise (or one scalar).  ``decay = (s, C)`` certifies
    |symbol(lam) - limit_at_zero| <= C * lam**s for small lam and sizes the
    window extension (module docstring).  The result is the one profile built.
    """
    kmin, hi, row, tail, lams = _extended_hat(f, decay)
    row *= np.asarray(symbol(lams), dtype=complex)
    tails = np.array([tail * complex(limit_at_zero)])
    kmin, kmax, out, tails = _fourier_block(f.params, kmin, hi, row[None, :], tails)
    return RadialProfile(f.params, kmin, kmax, out[0], tail=complex(tails[0]))

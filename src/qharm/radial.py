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

computed in one pass via suffix sums.  Forward and inverse coincide on
radial inputs because every sphere-character integral is real.  The output
window is [-kmax-1, -kmin] with inner tail equal to the improper integral
of f, so the representable class is closed under the transform.

Fourier multipliers act on the eigenvalues lam_m = q**(-m*alpha) of the
Taibleson operator, and every multiplier route (the H-infinity calculus,
square functions, the master-equation solver) extends the Fourier window
by one rule.  The constant Fourier tail meets eigenvalues tending to 0, on
which the multiplier is not constant.  If the tail times the multiplier
moves from its lam -> 0 limit by at most lip * lam**s, the window is
extended to the first crown with lam <= (eps / lip)**(1/s), so the residual
beyond it is below eps (1e-16, times the tail when that exceeds 1 on the
multiplier routes).  An extension past ``MAX_EXT`` crowns, or a cut-off
eigenvalue that underflows to 0, raises :class:`WindowOverflowError`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowOverflowError
from .field import FieldParams, ball_measure

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
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.kmax - self.kmin + 1,):
            raise ValueError(
                f"expected {self.kmax - self.kmin + 1} crown values, "
                f"got shape {arr.shape}"
            )
        arr = arr.copy()
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

    def crowns(self) -> np.ndarray:
        return np.arange(self.kmin, self.kmax + 1)

    def padded(self, kmin: int, kmax: int) -> "RadialProfile":
        """Same function on an enlarged window (0 outward, tail inward)."""
        if kmin > self.kmin or kmax < self.kmax:
            raise ValueError("padded window must contain the current one")
        out = np.full(kmax - kmin + 1, self.tail, dtype=complex)
        out[: self.kmin - kmin] = 0.0
        out[self.kmin - kmin : self.kmax - kmin + 1] = self.coeffs
        return RadialProfile(self.params, kmin, kmax, out, tail=self.tail)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        a, b = align(self, other)
        return RadialProfile(
            a.params, a.kmin, a.kmax, a.coeffs + b.coeffs, tail=a.tail + b.tail
        )

    def __sub__(self, other: "RadialProfile") -> "RadialProfile":
        return self + (-1.0) * other

    def __rmul__(self, c: complex) -> "RadialProfile":
        return RadialProfile(
            self.params, self.kmin, self.kmax, c * self.coeffs, tail=c * self.tail
        )

    def __mul__(self, c: complex) -> "RadialProfile":
        return self.__rmul__(c)


def align(f: RadialProfile, g: RadialProfile) -> tuple[RadialProfile, RadialProfile]:
    """Pad both profiles to the union crown window."""
    if f.params != g.params:
        raise ValueError("profiles live on different fields")
    kmin = min(f.kmin, g.kmin)
    kmax = max(f.kmax, g.kmax)
    return f.padded(kmin, kmax), g.padded(kmin, kmax)


def _sphere_measures(f: RadialProfile) -> np.ndarray:
    q, n = f.params.q, f.params.n
    ks = np.arange(f.kmin, f.kmax + 1, dtype=float)
    return (1.0 - float(q) ** (-n)) * np.power(float(q), -ks * n)


def improper_integral(f: RadialProfile) -> complex:
    """Crown-sum integral; the inner tail contributes tail * mu(G_{kmax+1})."""
    total = np.sum(f.coeffs * _sphere_measures(f))
    total += f.tail * float(ball_measure(f.kmax + 1, f.params))
    return complex(total)


def lp_norm(f: RadialProfile, p: float) -> float:
    """L^p norm, 1 <= p <= inf, with the inner tail summed in closed form."""
    if p == math.inf:
        sup = float(np.max(np.abs(f.coeffs))) if f.coeffs.size else 0.0
        return max(sup, abs(f.tail))
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    total = float(np.sum(np.abs(f.coeffs) ** p * _sphere_measures(f)))
    total += abs(f.tail) ** p * float(ball_measure(f.kmax + 1, f.params))
    return total ** (1.0 / p)


def radial_fourier(f: RadialProfile, direction: str = "forward") -> RadialProfile:
    """Radial Fourier transform via suffix sums; an involution on profiles."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction}")
    q, n = f.params.q, f.params.n
    terms = f.coeffs * _sphere_measures(f)
    # T[m] = sum_{k >= m} c_k mu(S_k) for m = kmin..kmax+1 (index m - kmin)
    T = np.empty(f.kmax - f.kmin + 2, dtype=complex)
    T[-1] = f.tail * float(ball_measure(f.kmax + 1, f.params))
    T[:-1] = np.cumsum(terms[::-1])[::-1] + T[-1]

    out_kmin, out_kmax = -f.kmax - 1, -f.kmin
    js = np.arange(out_kmin, out_kmax + 1, dtype=float)
    # for ascending j, -j runs kmax+1 .. kmin and -j-1 runs kmax .. kmin-1
    T_at = T[::-1]
    prev = np.concatenate((f.coeffs[::-1], [0.0 + 0.0j]))
    out = T_at - prev * np.power(float(q), n * js)
    return RadialProfile(f.params, out_kmin, out_kmax, out, tail=complex(T[0]))


def convolve(g: RadialProfile, f: RadialProfile) -> RadialProfile:
    """Convolution via the Fourier route: F^{-1}(Fg * Ff)."""
    gh, fh = align(radial_fourier(g), radial_fourier(f))
    prod = RadialProfile(
        gh.params, gh.kmin, gh.kmax, gh.coeffs * fh.coeffs, tail=gh.tail * fh.tail
    )
    return radial_fourier(prod, direction="inverse")


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
    smeas = _sphere_measures(gp)
    gball = np.power(float(q), -np.arange(gp.kmin + 1, gp.kmax + 2, dtype=float) * n)
    gc, fc = gp.coeffs, fp.coeffs
    m = gc.size

    cross = gc * fc * smeas
    prefix_cross = np.concatenate(([0.0 + 0.0j], np.cumsum(cross)[:-1]))
    sufg = np.concatenate((np.cumsum((gc * smeas)[::-1])[::-1][1:], [0.0 + 0.0j]))
    suff = np.concatenate((np.cumsum((fc * smeas)[::-1])[::-1][1:], [0.0 + 0.0j]))

    out = np.empty(m, dtype=complex)
    for i in range(m):
        out[i] = (
            prefix_cross[i]
            + fc[i] * sufg[i]
            + gc[i] * (suff[i] + fc[i] * (smeas[i] - gball[i]))
        )
    return RadialProfile(gp.params, gp.kmin, gp.kmax, out, tail=complex(np.sum(cross)))


def majorant(f: RadialProfile) -> RadialProfile:
    """Radially decreasing majorant: running sup of |c| from the outside in."""
    mags = np.abs(f.coeffs)
    run = np.maximum.accumulate(mags)
    tail = max(float(run[-1]) if run.size else 0.0, abs(f.tail))
    return RadialProfile(
        f.params, f.kmin, f.kmax, run.astype(complex), tail=complex(tail)
    )


def _eigenvalues(params: FieldParams, kmin: int, kmax: int) -> np.ndarray:
    """lam_m = q**(-m*alpha) on the Fourier crowns kmin..kmax."""
    ms = np.arange(kmin, kmax + 1, dtype=float)
    return np.power(float(params.q), -params.alpha * ms)


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
    if lam_cut == 0.0:
        raise WindowOverflowError(
            f"tail cut-off eigenvalue underflows to 0 (decay exponent {s})"
        )
    m_cut = math.ceil(math.log(1.0 / lam_cut) / (params.alpha * math.log(params.q)))
    ext_to = max(kmax, m_cut)
    if ext_to - kmax > MAX_EXT:
        raise WindowOverflowError(
            f"tail extension needs {ext_to - kmax} crowns (cap {MAX_EXT})"
        )
    return ext_to


def _extended_hat(
    f: RadialProfile, decay: tuple[float, float]
) -> tuple[RadialProfile, np.ndarray]:
    """Transform f and pad it for a multiplier within C * lam**s of its
    lam -> 0 limit, ``decay = (s, C)``; returns the padded transform and its
    eigenvalues."""
    fhat = radial_fourier(f)
    s, C = decay
    tail = abs(fhat.tail)
    ext_to = _extension_depth(
        f.params, fhat.kmax, C * tail, s, _TAIL_EPS * max(1.0, tail)
    )
    fhat = fhat.padded(fhat.kmin, ext_to)
    return fhat, _eigenvalues(f.params, fhat.kmin, fhat.kmax)


def fourier_multiplier_apply(
    f: RadialProfile,
    symbol,
    limit_at_zero: complex = 0.0,
    decay: tuple[float, float] = (1.0, 1.0),
) -> RadialProfile:
    """Apply a Fourier multiplier evaluated at the eigenvalues q**(-m*alpha).

    ``symbol`` maps the positive eigenvalue lam_m = ||xi||**alpha on the
    Fourier crown m to a complex factor; ``decay = (s, C)`` certifies
    |symbol(lam) - limit_at_zero| <= C * lam**s for small lam and sizes the
    window extension (module docstring).
    """
    fhat, lams = _extended_hat(f, decay)
    vals = np.array([symbol(lam) for lam in lams], dtype=complex)
    out = RadialProfile(
        f.params,
        fhat.kmin,
        fhat.kmax,
        fhat.coeffs * vals,
        tail=fhat.tail * complex(limit_at_zero),
    )
    return radial_fourier(out, direction="inverse")


# -- serialization -------------------------------------------------------------


def write_profile_csv(f: RadialProfile, fh) -> None:
    """Rows ``k,re,im`` after one comment line with the window metadata."""
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "w")
        close = True
    try:
        p = f.params
        fh.write(
            f"# q={p.q} n={p.n} alpha={p.alpha!r} kmin={f.kmin} kmax={f.kmax} "
            f"tail_re={f.tail.real!r} tail_im={f.tail.imag!r}\n"
        )
        fh.write("k,re,im\n")
        for k, c in zip(f.crowns(), f.coeffs):
            fh.write(f"{k},{float(c.real)!r},{float(c.imag)!r}\n")
    finally:
        if close:
            fh.close()


def read_profile_csv(fh) -> RadialProfile:
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "r")
        close = True
    try:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing profile header comment line")
        meta = dict(item.split("=", 1) for item in header[1:].split())
        params = FieldParams(int(meta["q"]), int(meta["n"]), float(meta["alpha"]))
        kmin, kmax = int(meta["kmin"]), int(meta["kmax"])
        tail = complex(float(meta["tail_re"]), float(meta["tail_im"]))
        coeffs = np.zeros(kmax - kmin + 1, dtype=complex)
        for line in fh:
            line = line.strip()
            if not line or line.startswith("k,"):
                continue
            kstr, re, im = line.split(",")
            coeffs[int(kstr) - kmin] = complex(float(re), float(im))
        return RadialProfile(params, kmin, kmax, coeffs, tail=tail)
    finally:
        if close:
            fh.close()


def profile_to_csv_string(f: RadialProfile) -> str:
    buf = io.StringIO()
    write_profile_csv(f, buf)
    return buf.getvalue()


def profile_from_csv_string(s: str) -> RadialProfile:
    return read_profile_csv(io.StringIO(s))

"""Finite-quotient analysis: coset averaging, maximal function, brute DFT.

Functions live on the quotient lattice G_{-M}/G_N, one complex value per
coset; every coset has Haar measure q**(-n*N).  The averaging operator A_i
replaces a function by its mean over each coset of G_i (the conditional
expectation onto the scale-i sigma-algebra); the maximal operator takes the
pointwise sup of A_i(|f|) over the whole filtration i in [-M, N].  On this
finite model Doob's inequality and the convolution domination through the
radially decreasing majorant are exact theorems, so both are asserted as
hard invariants.

The group Fourier transform maps the lattice to its dual G_{-N}/G_M; with
the canonical q-adic pairing it is exactly the n-dimensional DFT of size
q**(M+N) per coordinate, so it is evaluated through np.fft (the kernel
identity chi(x . xi) = exp(2 pi i (u . w) / q**(M+N)) is asserted by test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LatticeWindowError
from .field import FieldModel, FieldParams, QuotientLattice
from .radial import RadialProfile, _read_csv, _write_csv, lp_norm, majorant


@dataclass(frozen=True, eq=False)
class QuotientFunction:
    """Complex values on the quotient lattice, flat little-endian indexing."""

    lattice: QuotientLattice
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.lattice.size,):
            raise ValueError(
                f"expected {self.lattice.size} values, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def nd(self) -> np.ndarray:
        """View as an n-dimensional array, axis 0 most significant."""
        Q, n = self.lattice.coord_order, self.lattice.params.n
        return self.values.reshape((Q,) * n)

    def __add__(self, other: "QuotientFunction") -> "QuotientFunction":
        return QuotientFunction(self.lattice, self.values + other.values)

    def __rmul__(self, c: complex) -> "QuotientFunction":
        return QuotientFunction(self.lattice, c * self.values)


def lp_norm_quotient(f: QuotientFunction, p: float) -> float:
    """L^p(G) norm; every coset carries measure q**(-n*N)."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mu = float(f.lattice.coset_measure)
    return float(np.sum(np.abs(f.values) ** p) * mu) ** (1.0 / p)


def average_Ai(f: QuotientFunction, i: int) -> QuotientFunction:
    """Mean over each coset of G_i; exact finite conditional expectation.

    A coset of G_i fixes the coordinate digits at positions j < i and lets
    the finer digits run, so averaging contracts each coordinate axis over
    its high-order block of size q**(N-i).
    """
    lat = f.lattice
    if not -lat.M <= i <= lat.N:
        raise ValueError(f"scale {i} outside the filtration [-{lat.M}, {lat.N}]")
    q, n = lat.params.q, lat.params.n
    low = q ** (i + lat.M)  # digits below scale i per coordinate
    high = lat.coord_order // low
    arr = f.nd()
    # split each axis (size Q) into (high digits, low digits) and average
    # jointly over all the high-digit axes
    arr = arr.reshape(sum(((high, low) for _ in range(n)), ()))
    high_axes = tuple(2 * a for a in range(n))
    out = arr.mean(axis=high_axes, keepdims=True)
    out = np.broadcast_to(out, arr.shape)
    return QuotientFunction(lat, out.reshape(lat.size))


def maximal_M(f: QuotientFunction) -> QuotientFunction:
    """Mf = sup over i in [-M, N] of A_i(|f|), pointwise."""
    lat = f.lattice
    absf = QuotientFunction(lat, np.abs(f.values))
    out = np.zeros(lat.size)
    for i in range(-lat.M, lat.N + 1):
        out = np.maximum(out, average_Ai(absf, i).values.real)
    return QuotientFunction(lat, out.astype(complex))


def doob_check(f: QuotientFunction, p: float) -> tuple[float, float, bool]:
    """(||Mf||_p, (p/(p-1)) ||f||_p, lhs <= rhs + 1e-10)."""
    if not p > 1:
        raise ValueError(f"Doob inequality needs p > 1, got {p}")
    lhs = lp_norm_quotient(maximal_M(f), p)
    rhs = p / (p - 1.0) * lp_norm_quotient(f, p)
    return lhs, rhs, lhs <= rhs + 1e-10


def doob_check_tuple(fs, p: float) -> tuple[float, float]:
    """l2-valued variant: (||(Mf_k)_k||_{L^p(l2)}, ||(f_k)_k||_{L^p(l2)})."""
    if not p > 1:
        raise ValueError(f"Doob inequality needs p > 1, got {p}")
    lat = fs[0].lattice
    mu = float(lat.coset_measure)
    m_stack = np.stack([maximal_M(f).values.real for f in fs])
    f_stack = np.stack([f.values for f in fs])
    lhs = float(np.sum(np.sqrt(np.sum(m_stack**2, axis=0)) ** p) * mu) ** (1.0 / p)
    rhs = float(np.sum(np.sqrt(np.sum(np.abs(f_stack) ** 2, axis=0)) ** p) * mu) ** (
        1.0 / p
    )
    return lhs, rhs


def is_radial(f: QuotientFunction, tol: float = 0.0) -> bool:
    """True when f is constant on every lattice crown (and on the 0 coset)."""
    _, first, crown = np.unique(f.lattice.scales(), return_index=True, return_inverse=True)
    return bool(np.max(np.abs(f.values - f.values[first][crown])) <= tol)


def radial_crown_values(f: QuotientFunction) -> tuple[np.ndarray, np.ndarray, complex]:
    """(crown scale indices, crown values, zero-coset value) of a radial f."""
    ks, first = np.unique(f.lattice.scales(), return_index=True)  # ks = -M..N
    vals = f.values[first]
    return ks[:-1], vals[:-1], complex(vals[-1])


def majorant_l1_lattice(phi: QuotientFunction) -> float:
    """L^1 norm of the radially decreasing majorant of a radial phi; the
    zero coset, the ball G_N, is the majorant's inner tail."""
    if not is_radial(phi):
        raise ValueError("majorant domination needs a radial phi")
    lat = phi.lattice
    _, vals, zero = radial_crown_values(phi)
    # a zero crown outside G_{-M} keeps the window nonempty when M = N = 0
    profile = RadialProfile(lat.params, -lat.M - 1, lat.N - 1, np.r_[0.0, vals], zero)
    return lp_norm(majorant(profile), 1)


def group_convolve(phi: QuotientFunction, f: QuotientFunction) -> QuotientFunction:
    """(phi * f)(s) = sum_t phi(t) f(s - t) mu(coset), via the coordinate DFT.

    Circular convolution on the product cyclic group; exact to float
    rounding and validated against the roll-based double sum in tests.
    """
    lat = phi.lattice
    if f.lattice is not lat and (
        f.lattice.params != lat.params or (f.lattice.M, f.lattice.N) != (lat.M, lat.N)
    ):
        raise ValueError("convolution operands live on different lattices")
    a = np.fft.fftn(phi.nd())
    b = np.fft.fftn(f.nd())
    conv = np.fft.ifftn(a * b)
    return QuotientFunction(lat, conv.reshape(lat.size) * float(lat.coset_measure))


def group_convolve_direct(
    phi: QuotientFunction, f: QuotientFunction
) -> QuotientFunction:
    """Roll-based exhaustive double sum; small lattices only."""
    lat = phi.lattice
    nd = f.nd()
    out = np.zeros_like(nd)
    Q, n = lat.coord_order, lat.params.n
    for t in range(lat.size):
        shifts = lat.coord_values(t)
        rolled = nd
        for axis in range(n):
            # axis n-1 is coordinate 0 (least significant in the flat index)
            rolled = np.roll(rolled, shifts[n - 1 - axis], axis=axis)
        out += phi.values[t] * rolled
    return QuotientFunction(lat, out.reshape(lat.size) * float(lat.coset_measure))


def domination_check(phi: QuotientFunction, f: QuotientFunction) -> float:
    """max over s of |(phi*f)(s)| - ||R_phi||_1 * (Mf)(s); <= 0 exactly."""
    conv = group_convolve(phi, f)
    bound = majorant_l1_lattice(phi)
    mf = maximal_M(f)
    return float(np.max(np.abs(conv.values) - bound * mf.values.real))


def group_dft(f: QuotientFunction, direction: str = "forward") -> QuotientFunction:
    """Brute-force Fourier transform onto the dual lattice G_{-N}/G_M.

    Forward: F f(xi) = sum_y f(y) conj(chi(xi . y)) mu(coset); with the
    canonical pairing this is q**(-n*N) * fftn.  Inverse (from the dual):
    q**(-n*M) * Q**n * ifftn.  Round trip is the identity.
    """
    lat = f.lattice
    n = lat.params.n
    if direction == "forward":
        out = np.fft.fftn(f.nd()) * float(lat.coset_measure)
        return QuotientFunction(lat.dual(), out.reshape(lat.size))
    if direction == "inverse":
        out = np.fft.ifftn(f.nd()) * lat.coord_order**n * float(lat.coset_measure)
        return QuotientFunction(lat.dual(), out.reshape(lat.size))
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction}")


def lift_profile(profile: RadialProfile, lattice: QuotientLattice) -> QuotientFunction:
    """Sample a radial profile on the lattice crowns.

    The crowns k >= N, tail included, make up the zero coset G_N, so the
    lattice represents the profile only when it starts inside G_{-M} and is
    constant on those crowns; otherwise :class:`LatticeWindowError`.
    """
    if profile.params.q != lattice.params.q or profile.params.n != lattice.params.n:
        raise ValueError("profile and lattice field parameters disagree")
    M, N = lattice.M, lattice.N
    if profile.kmin < -M:
        raise LatticeWindowError(
            f"profile window starts at {profile.kmin}, outside G_{{-{M}}}"
        )
    zero = profile.value_at(N)
    inner = profile.coeffs[max(0, N + 1 - profile.kmin) :]  # window crowns k > N
    if profile.tail != zero or np.any(inner != zero):
        raise LatticeWindowError(f"profile is not constant on the zero coset G_{N}")
    table = np.array([profile.value_at(k) for k in range(-M, N + 1)])
    return QuotientFunction(lattice, table[lattice.scales() + M])


# -- serialization -------------------------------------------------------------


def write_quotient_csv(f: QuotientFunction, fh) -> None:
    """Rows ``index,re,im`` after one comment line with the lattice window.

    The index packs the per-coordinate digit strings little-endian in the
    digit position j (and little-endian across coordinates).
    """
    lat, p = f.lattice, f.lattice.params
    meta = dict(q=p.q, n=p.n, alpha=p.alpha, M=lat.M, N=lat.N)
    _write_csv(fh, meta, "index,re,im", enumerate(f.values))


def read_quotient_csv(fh) -> QuotientFunction:
    def build(meta):
        q, n, alpha = int(meta["q"]), int(meta["n"]), float(meta["alpha"])
        params = FieldParams(q, n, alpha, FieldModel.QADIC_QUOTIENT)
        lat = QuotientLattice(params, int(meta["M"]), int(meta["N"]))
        return 0, lat.size - 1, lambda vals: QuotientFunction(lat, vals)

    return _read_csv(fh, "lattice", "index,re,im", build)

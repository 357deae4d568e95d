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

from .field import QuotientLattice
from .radial import RadialProfile


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
    norms = f.lattice.norms()
    for v in np.unique(norms):
        vals = f.values[norms == v]
        if np.max(np.abs(vals - vals[0])) > tol:
            return False
    return True


def radial_crown_values(f: QuotientFunction) -> tuple[np.ndarray, np.ndarray, complex]:
    """(crown scale indices, crown values, zero-coset value) of a radial f."""
    lat = f.lattice
    norms = lat.norms()
    ks = np.arange(-lat.M, lat.N)
    vals = np.empty(ks.size, dtype=complex)
    q = lat.params.q
    for idx, k in enumerate(ks):
        sel = norms == float(q) ** (-int(k))
        if not np.any(sel):
            raise ValueError(f"empty crown {k}")
        vals[idx] = f.values[sel][0]
    zero = complex(f.values[0])
    return ks, vals, zero


def majorant_l1_lattice(phi: QuotientFunction) -> float:
    """L^1 norm of the radially decreasing majorant of a radial phi.

    Running max over enclosing crowns (outermost first), the zero coset
    included innermost, times the exact crown measures.
    """
    if not is_radial(phi):
        raise ValueError("majorant domination needs a radial phi")
    lat = phi.lattice
    q, n = lat.params.q, lat.params.n
    ks, vals, zero = radial_crown_values(phi)
    total = 0.0
    run = 0.0
    for k, v in zip(ks, vals):
        run = max(run, abs(v))
        total += run * float(q) ** (-int(k) * n) * (1.0 - float(q) ** (-n))
    run = max(run, abs(zero))
    total += run * float(lat.coset_measure)  # zero coset = ball G_N
    return total


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
    """Sample a radial profile on the lattice crowns (tail on the 0 coset).

    Requires the profile window to fit inside the lattice crowns, so the
    lattice truly represents the function.
    """
    if profile.params.q != lattice.params.q or profile.params.n != lattice.params.n:
        raise ValueError("profile and lattice field parameters disagree")
    if profile.kmin < -lattice.M:
        raise ValueError(
            f"profile window starts at {profile.kmin}, outside G_{{-{lattice.M}}}"
        )
    norms = lattice.norms()
    q = lattice.params.q
    vals = np.empty(lattice.size, dtype=complex)
    vals[norms == 0.0] = profile.tail if profile.kmax < lattice.N else 0.0
    for k in range(-lattice.M, lattice.N):
        vals[norms == float(q) ** (-k)] = profile.value_at(k)
    return QuotientFunction(lattice, vals)


# -- serialization -------------------------------------------------------------


def write_quotient_csv(f: QuotientFunction, fh) -> None:
    """Rows ``index,re,im`` after one comment line with the lattice window.

    The index packs the per-coordinate digit strings little-endian in the
    digit position j (and little-endian across coordinates).
    """
    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "w")
        close = True
    try:
        lat = f.lattice
        p = lat.params
        fh.write(f"# q={p.q} n={p.n} alpha={p.alpha!r} M={lat.M} N={lat.N}\n")
        fh.write("index,re,im\n")
        for i, v in enumerate(f.values):
            fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")
    finally:
        if close:
            fh.close()


def read_quotient_csv(fh) -> QuotientFunction:
    from .field import FieldModel, FieldParams

    close = False
    if isinstance(fh, (str, bytes)):
        fh = open(fh, "r")
        close = True
    try:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing lattice header comment line")
        meta = dict(item.split("=", 1) for item in header[1:].split())
        params = FieldParams(
            int(meta["q"]), int(meta["n"]), float(meta["alpha"]), FieldModel.QADIC_QUOTIENT
        )
        lat = QuotientLattice(params, int(meta["M"]), int(meta["N"]))
        vals = np.zeros(lat.size, dtype=complex)
        for line in fh:
            line = line.strip()
            if not line or line.startswith("index,"):
                continue
            idx, re, im = line.split(",")
            vals[int(idx)] = complex(float(re), float(im))
        return QuotientFunction(lat, vals)
    finally:
        if close:
            fh.close()

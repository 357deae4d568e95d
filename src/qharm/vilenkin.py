"""Finite-quotient analysis: coset averaging, maximal function, brute DFT.

Functions live on the quotient lattice G_{-M}/G_N, one complex value per
coset; every coset has Haar measure q**(-n*N).  The averaging operator A_i
replaces a function by its mean over each coset of G_i (the conditional
expectation onto the scale-i sigma-algebra); the maximal operator takes the
pointwise sup of A_i(|f|) over the filtration i in [-M, N], every scale in
one pass over a block of rows.  On this finite model Doob's inequality and the
domination through the radially decreasing majorant are exact theorems.

The group Fourier transform maps the lattice to its dual G_{-N}/G_M; with
the canonical q-adic pairing it is exactly the n-dimensional DFT of size
q**(M+N) per coordinate, so it is evaluated through np.fft (the kernel
identity chi(x . xi) = exp(2 pi i (u . w) / q**(M+N)) is asserted by test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LatticeWindowError
from .field import QuotientLattice
from .radial import RadialProfile, _ball_measure, _sphere_measures


@dataclass(frozen=True, eq=False)
class QuotientFunction:
    """Complex values on the quotient lattice, flat little-endian indexing."""

    lattice: QuotientLattice
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.complex128)  # a copy, made read-only
        if arr.shape != (self.lattice.size,):
            raise ValueError(f"expected {self.lattice.size} values, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def nd(self) -> np.ndarray:
        """View as an n-dimensional array, axis 0 most significant."""
        return self.values.reshape((self.lattice.coord_order,) * self.lattice.params.n)

    def __add__(self, other: "QuotientFunction") -> "QuotientFunction":
        return QuotientFunction(self.lattice, self.values + other.values)

    def __rmul__(self, c: complex) -> "QuotientFunction":
        return QuotientFunction(self.lattice, c * self.values)


def _lp_rows(X: np.ndarray, p: float, mu: float) -> list[float]:
    """L^p norms of the rows of X, 1 <= p < inf, every value carrying measure mu."""
    return [float(s * mu) ** (1.0 / p) for s in np.sum(np.abs(X) ** p, axis=1)]


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


def _filtration_max(lat: QuotientLattice, absf: np.ndarray) -> np.ndarray:
    """Mf = max over i of A_i(absf) for each row of a (rows, size) block.  Level i
    keeps its coarse (low) digits j < i per coordinate, summed from level i + 1
    over one more digit each, so all levels hold under 2 * size values a row;
    each, divided by its coset count, is maxed with the coarser running max."""
    q, n, rows = lat.params.q, lat.params.n, absf.shape[0]
    sums, low = [absf], lat.coord_order
    for _ in range(lat.M + lat.N):
        low //= q
        split = sums[-1].reshape((rows,) + (q, low) * n)
        sums.append(split.sum(axis=tuple(range(1, 2 * n, 2))).reshape(rows, low**n))
    run = sums.pop() / lat.size  # A_{-M}, the global mean
    while sums:
        level = (sums.pop() / q ** (n * len(sums))).reshape((rows,) + (q, low) * n)
        run = np.maximum(level, run.reshape((rows,) + (1, low) * n)).reshape(rows, (q * low) ** n)
        low *= q
    return run


def maximal_M(f: QuotientFunction) -> QuotientFunction:
    """Mf = sup over i in [-M, N] of A_i(|f|), pointwise."""
    return QuotientFunction(f.lattice, _filtration_max(f.lattice, np.abs(f.values)[None])[0])


def _doob_rows(lat: QuotientLattice, F: np.ndarray, p: float) -> tuple[list, list]:
    """([||Mf||_p], [(p/(p-1)) ||f||_p]) over the rows f of a (rows, size) block F."""
    if not p > 1:
        raise ValueError(f"Doob inequality needs p > 1, got {p}")
    mu, absF = float(lat.coset_measure), np.abs(F)
    lhs = _lp_rows(_filtration_max(lat, absF), p, mu)
    return lhs, [p / (p - 1.0) * r for r in _lp_rows(absF, p, mu)]


def doob_check(f: QuotientFunction, p: float) -> tuple[float, float, bool]:
    """(||Mf||_p, (p/(p-1)) ||f||_p, lhs <= rhs + 1e-10)."""
    (lhs,), (rhs,) = _doob_rows(f.lattice, f.values[None], p)
    return lhs, rhs, lhs <= rhs + 1e-10


def doob_check_tuple(fs, p: float) -> tuple[float, float]:
    """l2-valued variant: (||(Mf_k)_k||_{L^p(l2)}, ||(f_k)_k||_{L^p(l2)})."""
    if not p > 1:
        raise ValueError(f"Doob inequality needs p > 1, got {p}")
    lat, absF = fs[0].lattice, np.abs(np.stack([f.values for f in fs]))
    l2 = np.sqrt([np.sum(_filtration_max(lat, absF) ** 2, axis=0), np.sum(absF**2, axis=0)])
    return tuple(_lp_rows(l2, p, float(lat.coset_measure)))


def is_radial(f: QuotientFunction) -> bool:
    """True when f is constant on every lattice crown (and on the 0 coset)."""
    crowns = f.values[f.lattice.crown_firsts()][f.lattice.scales() + f.lattice.M]
    return bool(np.all(f.values == crowns))


def _majorant_l1(lat: QuotientLattice, Phi: np.ndarray) -> np.ndarray:
    """||R_phi||_1 of each radial row: the crown moduli's running max (outside in) on
    the spheres, and on the zero coset G_N the larger of that max and its modulus."""
    q, n, M, N = lat.params.q, lat.params.n, lat.M, lat.N
    mods = np.abs(Phi[:, lat.crown_firsts()])
    # a zero crown outside G_{-M} keeps the window nonempty when M = N = 0
    run = np.maximum.accumulate(np.hstack((np.zeros((len(mods), 1)), mods[:, :-1])), axis=1)
    total = np.sum(run * _sphere_measures(q, n, -M - 1, N - 1), axis=1)
    return total + np.maximum(run[:, -1], mods[:, -1]) * _ball_measure(q, n, N)


def _convolve(lat: QuotientLattice, Phi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """phi * f through the coordinate DFT for the row pairs of two (rows, size) blocks."""
    shape, axes = (-1,) + (lat.coord_order,) * lat.params.n, tuple(range(1, lat.params.n + 1))
    ab = np.fft.fftn(Phi.reshape(shape), axes=axes) * np.fft.fftn(F.reshape(shape), axes=axes)
    return np.fft.ifftn(ab, axes=axes).reshape(F.shape) * float(lat.coset_measure)


def _common_lattice(phi: QuotientFunction, f: QuotientFunction) -> QuotientLattice:
    a, b = phi.lattice, f.lattice
    if (a.params, a.M, a.N) != (b.params, b.M, b.N):
        raise ValueError("convolution operands live on different lattices")
    return a


def group_convolve(phi: QuotientFunction, f: QuotientFunction) -> QuotientFunction:
    """(phi * f)(s) = sum_t phi(t) f(s - t) mu(coset) on the product cyclic group,
    via the coordinate DFT; exact to float rounding."""
    lat = _common_lattice(phi, f)
    return QuotientFunction(lat, _convolve(lat, phi.values[None], f.values[None])[0])


def group_convolve_direct(phi: QuotientFunction, f: QuotientFunction) -> QuotientFunction:
    """Exhaustive double sum over t of phi(t) f(s - t) mu, no FFT; small lattices
    only.  Per axis, row s of the circulant f(s - t) is the window of the doubled,
    reversed f starting at Q - 1 - s, read in row blocks of about 2**15 entries."""
    lat, Q, n = phi.lattice, phi.lattice.coord_order, phi.lattice.params.n
    rev = np.tile(f.nd(), (2,) * n)[(slice(None, None, -1),) * n]
    circ = sliding_window_view(rev, (Q,) * n)[(slice(Q - 1, None, -1),) * n]
    step = max(1, (1 << 15) // (lat.size * Q ** (n - 1)))  # axis-0 slices a block
    out = [circ[a : a + step].reshape(-1, lat.size) @ phi.values for a in range(0, Q, step)]
    return QuotientFunction(lat, np.concatenate(out) * float(lat.coset_measure))


def _domination_rows(lat: QuotientLattice, Phi: np.ndarray, F: np.ndarray) -> np.ndarray:
    """max over s of |(phi*f)(s)| - ||R_phi||_1 (Mf)(s) for the row pairs (phi, f)
    of two (rows, size) blocks, every phi radial."""
    bound = _majorant_l1(lat, Phi)[:, None] * _filtration_max(lat, np.abs(F))
    return np.max(np.abs(_convolve(lat, Phi, F)) - bound, axis=1)


def domination_check(phi: QuotientFunction, f: QuotientFunction) -> float:
    """max over s of |(phi*f)(s)| - ||R_phi||_1 * (Mf)(s); <= 0 exactly."""
    lat = _common_lattice(phi, f)
    if not is_radial(phi):
        raise ValueError("majorant domination needs a radial phi")
    return float(_domination_rows(lat, phi.values[None], f.values[None])[0])


def group_dft(f: QuotientFunction, direction: str = "forward") -> QuotientFunction:
    """Brute-force Fourier transform onto the dual lattice G_{-N}/G_M.

    Forward: F f(xi) = sum_y f(y) conj(chi(xi . y)) mu(coset); with the
    canonical pairing this is q**(-n*N) * fftn.  Inverse (from the dual):
    q**(-n*M) * Q**n * ifftn.  Round trip is the identity.
    """
    lat = f.lattice
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction}")
    nd = f.nd()
    out = np.fft.fftn(nd) if direction == "forward" else np.fft.ifftn(nd) * lat.size
    return QuotientFunction(lat.dual(), out.reshape(lat.size) * float(lat.coset_measure))


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
        msg = f"profile window starts at {profile.kmin}, outside G_{{-{M}}}"
        raise LatticeWindowError(msg)
    zero = profile.value_at(N)
    inner = profile.coeffs[max(0, N + 1 - profile.kmin) :]  # window crowns k > N
    if profile.tail != zero or np.any(inner != zero):
        raise LatticeWindowError(f"profile is not constant on the zero coset G_{N}")
    table = np.array([profile.value_at(k) for k in range(-M, N + 1)])
    return QuotientFunction(lattice, table[lattice.scales() + M])


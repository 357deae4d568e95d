"""Exact arithmetic for hierarchical local-field models on K^n.

Everything downstream is parameterized by a residue cardinality q >= 2, a
dimension n >= 1 and a positive exponent alpha.  One scale convention is
used across the whole package:

    scale index k  <->  sphere  S_k = {x : ||x|| = q**(-k)}
                        ball    G_k = {x : ||x|| <= q**(-k)}

so larger k means smaller sets.  The Haar measure mu is normalized by
mu(G_0) = 1, which makes mu(G_k) = q**(-k*n) and
mu(S_k) = q**(-k*n) * (1 - q**(-n)) exact rationals.

Measures, norms and q-adic fractional parts are exact ``Fraction`` values;
complex transcendentals enter only through exp(2*pi*i*r) with r rational.

Two models are supported.  ``GENERIC_RADIAL`` carries no element
representation: only (q, n, alpha), which is all that any radial closed
form needs.  ``QADIC_QUOTIENT`` (q prime) adds digit arithmetic on the
finite quotient G_{-M}/G_N of Q_q^n, the brute-force substrate for
non-radial checks.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LatticeWindowError, WindowOverflowError

_ELEMENT_CAP = 2_000_000  # most cosets the brute sphere-character oracle enumerates


class FieldModel(enum.Enum):
    GENERIC_RADIAL = "generic_radial"
    QADIC_QUOTIENT = "qadic_quotient"


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldParams:
    """The triple (q, n, alpha), q**alpha a finite float, plus the concrete-field tag."""

    q: int
    n: int
    alpha: float
    model: FieldModel = FieldModel.GENERIC_RADIAL

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"residue cardinality q must be >= 2, got {self.q}")
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"exponent alpha must be positive and finite, got {self.alpha}")
        _float_qpow(self.q, self.alpha, "field step")
        if self.model is FieldModel.QADIC_QUOTIENT and not _is_prime(self.q):
            raise ValueError(f"the q-adic quotient model needs q prime, got q={self.q}")


def qpow(q: int, e: int) -> Fraction:
    """q**e as an exact rational, for e of either sign."""
    if e >= 0:
        return Fraction(q**e)
    return Fraction(1, q ** (-e))


def _float_qpow(q: int, e: float, what: str = "crown weight") -> float:
    """float(q) ** e; a power past the float range raises WindowOverflowError."""
    try:
        return float(q) ** e
    except OverflowError:
        raise WindowOverflowError(f"{what} q**({e:g}) at q={q} leaves the float range") from None


def norm_exponent(q: int, value: Fraction | int) -> int | None:
    """Return e with value == q**e, None for value == 0; reject other values."""
    v = Fraction(value)
    if v == 0:
        return None
    if v < 0:
        raise ValueError(f"norm value must be a q-power or 0, got {value}")
    num, den = v.numerator, v.denominator
    e = 0
    while num % q == 0:
        num //= q
        e += 1
    while den % q == 0:
        den //= q
        e -= 1
    if num != 1 or den != 1:
        raise ValueError(f"norm value must be a power of q={q} or 0, got {value}")
    return e


def ball_measure(k: int, params: FieldParams) -> Fraction:
    """mu(G_k) = q**(-k*n)."""
    return qpow(params.q, -k * params.n)


def sphere_measure(k: int, params: FieldParams) -> Fraction:
    """mu(S_k) = q**(-k*n) * (1 - q**(-n))."""
    return ball_measure(k, params) - ball_measure(k + 1, params)


def sphere_character_integral(
    k: int, norm_x: Fraction | int, params: FieldParams
) -> Fraction:
    """Integral of chi(x . y) over the sphere S_k, as a function of ||x||.

    Equals mu(S_k) for ||x|| <= q**k, the single negative value
    -q**(-n*(k+1)) on ||x|| = q**(k+1), and 0 for ||x|| >= q**(k+2).  A NaN
    or infinite float norm raises ValueError.
    """
    if isinstance(norm_x, float) and not math.isfinite(norm_x):  # before Fraction sees it
        raise ValueError(f"sphere-character norm must be finite, got {norm_x}")
    q, n = params.q, params.n
    e = norm_exponent(q, norm_x)
    if e is None or e <= k:
        return sphere_measure(k, params)
    if e == k + 1:
        return -qpow(q, -n * (k + 1))
    return Fraction(0)


def fractional_part(r: Fraction, q: int) -> Fraction:
    """The q-adic fractional part of a rational with q-power denominator.

    For r = a / q**e (e >= 0) this is (a mod q**e) / q**e, a value in [0, 1);
    rationals whose denominator is not a q-power are rejected.
    """
    den = r.denominator
    if den == 1:
        return Fraction(0)
    d = den
    while d % q == 0:
        d //= q
    if d != 1:
        raise ValueError(
            f"fractional part needs a q-power denominator (q={q}), got {r}"
        )
    return Fraction(r.numerator % den, den)


def character_value(r: Fraction, q: int) -> complex:
    """exp(2 pi i {r}_q), the standard additive character of Q_q."""
    frac = fractional_part(r, q)
    if frac == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * (frac.numerator / frac.denominator))


def character(x, y, q: int) -> complex:
    """chi(x . y) for coordinate vectors of exact rationals."""
    dot = sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))
    return character_value(dot, q)


class QuotientLattice:
    """The finite quotient G_{-M}/G_N of Q_q^n, with exact digit arithmetic.

    Each coordinate is a digit string (x_{-M}, ..., x_{N-1}) representing
    sum_j x_j q**j; it is stored as the integer u = sum_j x_j q**(j+M) in
    [0, q**(M+N)), so per coordinate the quotient is cyclic of order
    q**(M+N) and addition is plain integer addition mod q**(M+N).  A flat
    element index packs the n coordinates little-endian:
    index = u_0 + u_1 * Q + ... + u_{n-1} * Q**(n-1) with Q = q**(M+N).

    Lattice elements stand for canonical coset representatives; every coset
    of G_N has Haar measure q**(-n*N).  ``add``, ``neg``, ``sub``,
    ``coord_values`` and ``index_of`` broadcast over integer index arrays.
    """

    def __init__(self, params: FieldParams, M: int, N: int):
        if params.model is not FieldModel.QADIC_QUOTIENT:
            raise ValueError("quotient lattices require the q-adic quotient model")
        if M < 0 or N < 0:
            raise ValueError(f"window bounds must satisfy M, N >= 0, got {M}, {N}")
        self.params = params
        self.M = M
        self.N = N
        self.coord_order = params.q ** (M + N)
        self.size = self.coord_order**params.n
        self._scales: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._firsts: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover
        p = self.params
        return f"QuotientLattice(q={p.q}, n={p.n}, M={self.M}, N={self.N})"

    @property
    def coset_measure(self) -> Fraction:
        return qpow(self.params.q, -self.params.n * self.N)

    def dual(self) -> "QuotientLattice":
        """The Pontryagin dual window G_{-N}/G_M."""
        return QuotientLattice(self.params, self.N, self.M)

    # -- element arithmetic ------------------------------------------------

    def coord_values(self, index: int) -> tuple[int, ...]:
        Q = self.coord_order
        return tuple((index // Q**i) % Q for i in range(self.params.n))

    def index_of(self, coord_values) -> int:
        Q = self.coord_order
        idx = 0
        for i, u in enumerate(coord_values):
            idx += (u % Q) * Q**i
        return idx

    def coords(self, index: int) -> tuple[Fraction, ...]:
        """Exact rational coordinates of the canonical representative."""
        scale = qpow(self.params.q, -self.M)
        return tuple(u * scale for u in self.coord_values(index))

    def add(self, i: int, j: int) -> int:
        Q = self.coord_order
        return self.index_of(
            (a + b) % Q for a, b in zip(self.coord_values(i), self.coord_values(j))
        )

    def neg(self, i: int) -> int:
        Q = self.coord_order
        return self.index_of((-a) % Q for a in self.coord_values(i))

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    # -- norms -------------------------------------------------------------

    def scales(self) -> np.ndarray:
        """Scale index k of every element, ||x|| = q**(-k), cached read-only;
        the zero coset (the ball G_N) gets N.  Per coordinate, k is the number
        of trailing zero base-q digits of u minus M (u = 0 has all M + N)."""
        if self._scales is None:
            q, M, N = self.params.q, self.M, self.N
            u = np.arange(self.coord_order)
            coord = np.full(u.size, -M)
            for j in range(1, M + N + 1):
                coord += u % q**j == 0
            self._scales = coord
            for _ in range(self.params.n - 1):
                self._scales = np.minimum.outer(coord, self._scales).ravel()
            self._scales.flags.writeable = False
        return self._scales

    def crown_firsts(self) -> np.ndarray:
        """First flat index of each crown k = -M..N-1 (u_0 = q**(k+M), every
        other coordinate 0), then of the zero coset (0), cached read-only."""
        if self._firsts is None:
            self._firsts = np.r_[self.params.q ** np.arange(self.M + self.N), 0]
            self._firsts.flags.writeable = False
        return self._firsts

    def norm(self, index: int) -> Fraction:
        """||x|| = max_i |x_i|; the zero coset maps to 0."""
        k = int(self.scales()[index])
        return Fraction(0) if k == self.N else qpow(self.params.q, -k)

    def norms(self) -> np.ndarray:
        """Float norms q**(-k) of all elements, 0 on the zero coset, cached
        read-only."""
        if self._norms is None:
            k = self.scales()
            self._norms = np.where(k == self.N, 0.0, float(self.params.q) ** -k)
            self._norms.flags.writeable = False
        return self._norms

    # -- characters ----------------------------------------------------------

    def pair_character(self, i: int, j: int) -> complex:
        """chi(x . y) for the canonical representatives of two elements."""
        return character(self.coords(i), self.coords(j), self.params.q)

    # -- enumeration ---------------------------------------------------------

    def ball_coord_values(self, k: int) -> range:
        """Coordinate values u with |x_i| <= q**(-k), i.e. val_q(u) >= k + M."""
        if k + self.M < 0:
            raise LatticeWindowError(
                f"ball at scale {k} does not fit in G_{{-{self.M}}}"
            )
        step = self.params.q ** (k + self.M)
        if step > self.coord_order:
            return range(0, 1)  # only the zero coset
        return range(0, self.coord_order, step)


def check_local_constancy(lattice: QuotientLattice, x_coords) -> None:
    """Verify chi(x . y) is constant on cosets of G_N for the given x.

    Equivalent to one refinement level: chi is coset-constant iff
    {x_i * q**N}_q = 0 for every coordinate.
    """
    q, N = lattice.params.q, lattice.N
    shift = qpow(q, N)
    for i, xi in enumerate(x_coords):
        if fractional_part(Fraction(xi) * shift, q) != 0:
            raise LatticeWindowError(
                f"resolution N={N} too small: chi(x . y) is not constant on "
                f"cosets of G_N for coordinate {i} (|x_{i}| too large)"
            )


def brute_sphere_character_integral(k: int, x_coords, lattice: QuotientLattice) -> complex:
    """Exhaustive coset sum of chi(x . y) over the sphere S_k.

    Independent oracle for :func:`sphere_character_integral`: enumerates
    every coset of G_N inside S_k = G_k - G_{k+1} and sums the exact
    character values weighted by the coset measure.

    Once chi(x . y) is coset-constant, every x_i has a q-power denominator,
    so x . (u q**-M) = S / L over one q-power L with S an integer dot
    product; the character is exp(2 pi i (S mod L) / L), and int / int
    division rounds correctly, so each term has the bits of the reduced
    fraction's.  A NaN or infinite float coordinate raises ValueError before
    any work.
    """
    if any(isinstance(x, float) and not math.isfinite(x) for x in x_coords):
        raise ValueError(f"sphere-character coordinates must be finite, got {tuple(x_coords)}")
    params = lattice.params
    if k > lattice.N - 1:
        raise LatticeWindowError(
            f"sphere at scale {k} is not resolved by N={lattice.N}"
        )
    check_local_constancy(lattice, x_coords)
    xs = [Fraction(xi) for xi in x_coords]
    lcm = math.lcm(*(xi.denominator for xi in xs))
    den = lcm * params.q**lattice.M
    # coordinates past len(x_coords) pair with 0, those past n with nothing
    weights = [xi.numerator * (lcm // xi.denominator) for xi in xs] + [0] * params.n

    def ball_sum(scale: int) -> complex:
        per_coord = [list(lattice.ball_coord_values(scale))] * params.n
        count = 1
        for vals in per_coord:
            count *= len(vals)
        if count > _ELEMENT_CAP:
            raise LatticeWindowError(
                f"ball enumeration of {count} cosets exceeds cap {_ELEMENT_CAP}"
            )
        # S's terms w_i u_i, coordinate by coordinate
        rows = [[w * u for u in vals] for w, vals in zip(weights, per_coord)]
        total = 0.0 + 0.0j
        for terms in itertools.product(*rows):
            r = sum(terms) % den
            total += (1.0 + 0.0j) if r == 0 else cmath.exp(2j * math.pi * (r / den))
        return total

    sphere = ball_sum(k) - ball_sum(k + 1)
    return sphere * float(lattice.coset_measure)

"""Complex-time heat kernel of the Taibleson semigroup on K^n.

K_z is the Fourier transform of xi -> exp(-z * ||xi||**alpha), Re z > 0.  With
lam_j = q**(-j alpha), its production form at ||x|| = q**(-k_x) is the suffix sum
    K_z(x) = sum_{j >= -k_x} q**(-j n) D_j,   D_j = exp(-z lam_j) - exp(-z lam_{j-1}).

Term j is at most q**(-j n) |z| lam_j (q**alpha - 1), so the terms from J on
sum to at most E |z| q**(-J (n+alpha)), E = (q**alpha - 1) / (1 - q**(-alpha-n)).
``_exp_form_block`` sums a crown window as one cancellation-free reversed
cumsum from the inner end, cut at the first J where that bound is below tol
times the least of 1, the far-field envelope E |z| / ||x||**(alpha+n) at the
outermost crown and a lower bound of K_{Re z}(0).  ``kernel_exp_form`` is
its 1x1 case, ``kernel_at_zero`` its crown past which every term flushes to 0
and ``kernel_ball_integral`` a summation by parts of one crown.  Two oracles:

* ``kernel_crown_sum``: the Fourier integral crown by crown,
      (1 - q**-n) * sum_{k >= n0} exp(-z q**(-k alpha)) q**(-k n)
          - exp(-z q**alpha / ||x||**alpha) * ||x||**(-n),
  ||x|| = q**n0, whose tail after K terms is at most q**(-(n0+K) n).
* ``kernel_series``: the factorial series
      sum_{k >= 1} (-z)**k / k! * Gamma_q^{(n)}(k alpha + n) / ||x||**(k alpha + n),
  guarded against catastrophic cancellation.

Every evaluator returns the value and a rigorous bound on its truncation
error, plus roundoff for the oracles and the ball integral; compare with
value +- bound.

Per-time state.  The exp form alone keeps state, for the last time, in one
tuple rebound whole and keyed by (q, n, alpha, z, sign of Im z) (1+0j == 1-0j,
but -z carries the zero's sign): its scales (``_exp_scales``) and its terms
q**(-j n) D_j as one array grown by doubling (``_exp_terms``).  The oracles'
z-free parts sit in bounded caches: the crown sum's powers and last crown by
(q, n, alpha, ||x||, tol, budget), the series' factors Gamma_q^(n)(k alpha + n)
by (q, n, alpha, k).  Each call keeps its own cut, sum, bound and checks, and
a call that raises keeps nothing of its error, so a warm call returns a cold
call's bytes or raises its error; ``_clear_state`` empties all three.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CancellationError, ToleranceError, WindowOverflowError
from .field import FieldParams, _float_qpow
from .gamma import gamma_qn
from .radial import LOG_FLOOR, RadialProfile, _finite_time, _sphere_measures

_SERIES_SWITCH = 8.0  # largest |z| * ||x||**(-alpha) the factorial series accepts
_CROWN_MEMO = 256  # crown-sum keys kept: perfbench's kernel ops use 192, the kernel suites 60


def _as_time(z) -> complex:
    """z as a finite complex time; Re z > 0 or ValueError, |z| a float or
    WindowOverflowError."""
    z = complex(z)
    if not (z.real > 0 and cmath.isfinite(z)):
        _finite_time(z)  # a NaN or infinite part: the semigroup's finite-time error
        raise ValueError(f"complex time needs Re z > 0, got {z}")
    if math.hypot(z.real, z.imag) == math.inf:  # abs(z) would raise OverflowError
        raise WindowOverflowError(f"|z| at z={z} leaves the float range")
    return z


@dataclass(frozen=True)
class KernelEvalConfig:
    """Truncation budget and target tolerance."""

    tail_budget: int = 192
    tol: float = 1e-13

    def __post_init__(self) -> None:
        if self.tail_budget < 8:
            raise ValueError(f"tail_budget must be >= 8, got {self.tail_budget}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


DEFAULT_CFG = KernelEvalConfig()


class EvalResult(NamedTuple):
    value: complex
    tail_bound: float


def _cexp(w: complex) -> complex:
    """exp(w) for Re w <= 0, flushing the underflow region to exactly 0."""
    if w.real < LOG_FLOOR:
        return 0.0 + 0.0j
    return cmath.exp(w)


def _first_term(t: float, params: FieldParams) -> int:
    """The first j with -t lam_j >= LOG_FLOOR; exp(-z lam_j) flushes before it."""
    return math.ceil(math.log(t / -LOG_FLOOR) / (params.alpha * math.log(params.q)))


def _terms_fit(z: complex, params: FieldParams, j: int) -> bool:
    """Whether the weight q**(-j n) and the exponent bound |z| lam_j (q**alpha - 1)
    of term j are floats; both grow as j falls."""
    q, n, alpha = params.q, params.n, params.alpha
    try:
        float(q) ** (-n * j)
        return abs(z) * float(q) ** (-alpha * j) * (float(q) ** alpha - 1.0) < math.inf
    except OverflowError:
        return False


# the exp form's state at the last time, rebound whole: its scales, its terms for j in
# [lo, lo + len(terms))
_TimeState = collections.namedtuple("_TimeState", "key scales lo terms")
_state = None


def _clear_state() -> None:
    """Empty the exp form's state and the oracles' caches, so that the next
    kernel call computes cold."""
    global _state
    _state = None
    _crown_powers.cache_clear()
    _series_gamma.cache_clear()


def _exp_scales(z: complex, params: FieldParams) -> tuple:
    """(lnq, rate, m, log_k0, log_tail0, j_first) of the exp form at z.
    K_{Re z}(0) >= (1 - q**-n) exp(-t lam_m) q**(-m n) at the first crown m
    with t lam_m <= n / alpha gives the inner scale exp(log_k0)."""
    q, n, alpha, t = params.q, params.n, params.alpha, z.real
    if alpha * t / n == 0.0 or t / -LOG_FLOOR == 0.0:  # the logs of the scales below
        raise WindowOverflowError(f"exp-form time scale at Re z = {t!r} underflows to 0")
    lnq = math.log(q)
    m = math.ceil(math.log(alpha * t / n) / (alpha * lnq))
    try:
        tlam = t * float(q) ** (-m * alpha)
    except OverflowError:  # t near the underflow: its bound n / alpha stands in
        tlam = n / alpha
    log_k0 = math.log1p(-float(q) ** -n) - tlam - m * n * lnq
    # the terms from J on sum to at most exp(log_tail0 - J rate); the factor
    # 1 + 2**-36 covers the rounding in evaluating this bound
    log_tail0 = math.log(_power_envelope(params, z)) + 2.0**-36
    return lnq, (n + alpha) * lnq, m, log_k0, log_tail0, _first_term(t, params)


def _exp_terms(state: _TimeState, z: complex, params: FieldParams, j0: int, J: int) -> np.ndarray:
    """q**(-j n) D_j for j = J - 1 down to j0, the inner end first, sliced from
    the time's one read-only array.  A term depends on (params, z, j) alone, a
    sum also on its window's cut and start, so only terms are kept.  A miss
    checks the exponent bound at j0, which every kept range has passed, and
    doubles the range on the side that ran short, to no j below j_first or
    past the floats."""
    global _state
    key, scales, lo, terms = state
    hi = lo if terms is None else lo + len(terms)
    if terms is not None and lo <= j0 and J <= hi:
        return terms[hi - J : hi - j0]
    if not _terms_fit(z, params, j0):  # the caller checked the weight
        msg = f"exp-form exponent |z| lam_j (q**alpha - 1) at z={z}, j={j0} leaves the float range"
        raise WindowOverflowError(msg)
    if terms is None:
        lo, hi = j0, J
    width = hi - lo
    if j0 < lo:
        grown = max(lo - width, scales[5])
        lo = grown if grown < j0 and _terms_fit(z, params, grown) else j0
    if J > hi:
        hi = max(J, hi + width)
    q, n, alpha = params.q, params.n, params.alpha
    # q**(-j n) and w = -z lam_j for j = hi - 1 down to lo
    weights = float(q**n) ** np.arange(1 - hi, 1 - lo, dtype=float)
    w = weights ** (alpha / n) * -z
    # D_j = -exp(w) expm1(w (q**alpha - 1)), cancellation-free
    terms = np.exp(w) * np.expm1(w * (float(q) ** alpha - 1.0))
    terms *= weights
    terms.flags.writeable = False
    _state = _TimeState(key, scales, lo, terms)
    return terms[hi - J : hi - j0]


def _exp_form_block(
    z: complex, kmin: int, kmax: int, params: FieldParams, cfg: KernelEvalConfig
) -> tuple[np.ndarray, float]:
    """K_z on the crowns kmin..kmax as one reversed cumsum from
    :func:`_first_term` on, and the tail bound they share, from the time's
    kept scales (:func:`_exp_scales`) and terms (:func:`_exp_terms`)."""
    global _state
    q, n, alpha, t = params.q, params.n, params.alpha, z.real
    # numbers, not params (a dataclass compares in Python); 1+0j == 1-0j, but
    # -z carries the zero's sign
    key = (q, n, alpha, z, math.copysign(1.0, z.imag))
    state = _state
    if state is None or state.key != key:  # a new time, kept once its terms are
        state = _TimeState(key, _exp_scales(z, params), 0, None)
    lnq, rate, m, log_k0, log_tail0, j_first = state.scales
    log_scale = min(0.0, log_tail0 + kmin * rate, log_k0)
    J = math.floor((log_tail0 - math.log(cfg.tol) - log_scale) / rate) + 1
    if J - max(-kmin, j_first) > cfg.tail_budget:
        # count from the first term whose bound 2 exp(-t lam_j) q**(-j n) reaches
        # tol * scale; that bound is log-concave in j and peaks at m - 1 or m
        js = np.arange(max(-kmin, j_first), max(-kmin, j_first, m) + 1)
        logs = math.log(2.0) - np.exp(math.log(t) - alpha * lnq * js) - n * lnq * js
        big = js[logs >= math.log(cfg.tol) + log_scale]
        if big.size and J - big[0] > cfg.tail_budget:
            msg = f"{cfg.tail_budget} terms (crowns [{kmin}, {kmax}], z={z})"
            raise ToleranceError(f"kernel exp-form did not reach tol={cfg.tol} within {msg}")
    j0 = max(-kmax, j_first)
    J = max(J, j0 + 1, 1 - kmin)
    _float_qpow(q, -n * j0)  # the largest weight
    # S[i] sums the i + 1 innermost terms; crown k sums the j >= max(-k, j0)
    S = _exp_terms(state, z, params, j0, J).cumsum()
    vals = S[J + kmin - 1 : J + kmax]
    if vals.size <= kmax - kmin:
        vals = np.concatenate((vals, np.full(kmax - kmin + 1 - vals.size, S[-1])))
    # 0.0 - vals, not -vals: a real time gets +0.0 imaginary parts
    return 0.0 - vals, math.exp(log_tail0 - J * rate)


def kernel_exp_form(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Suffix-sum evaluator at ||x|| = q**(-k_x), the 1x1 case of the block."""
    vals, tail = _exp_form_block(_as_time(z), k_x, k_x, params, cfg)
    return EvalResult(complex(vals[0]), tail)


def kernel_crown_sum(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Crown-by-crown Fourier sum, the oracle evaluator, at ||x|| = q**(-k_x)."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    n0 = -k_x  # ||x|| = q**n0
    xnorm = _float_qpow(q, n0, "norm")
    lam = _float_qpow(q, -n0 * alpha, "eigenvalue")  # the first term's powers
    _float_qpow(q, -n0 * n)
    # the correction forms z q**alpha, then z q**(alpha (1 + k_x)): both are floats too
    if abs(z) * float(q) ** alpha * max(1.0, lam) == math.inf:
        raise WindowOverflowError(f"crown-sum exponent at z={z}, k_x={k_x} leaves the float range")
    powers = _crown_powers(q, n, alpha, n0, cfg.tol, cfg.tail_budget)
    if powers is None:
        msg = f"{cfg.tail_budget} terms (k_x={k_x}, z={z})"
        raise ToleranceError(f"kernel crown sum did not reach tol={cfg.tol} within {msg}")
    lams, weights, tail = powers
    w = -z * lams
    acc, mag = 0.0 + 0.0j, 0.0  # the sum and the sum of the terms' moduli
    for term in (np.where(w.real < LOG_FLOOR, 0, np.exp(w)) * weights).tolist():
        acc += term
        mag += abs(term)
    rn = float(q) ** (-n)
    corr = _cexp(-z * float(q) ** alpha * xnorm ** (-alpha)) * xnorm ** (-n)
    # summing the K + 1 - n0 terms and subtracting corr rounds by at most
    # K - n0 + 7 units of 2**-53 times the moduli summed
    roundoff = 2.0**-53 * (len(lams) + 6) * ((1.0 - rn) * mag + abs(corr))
    return EvalResult((1.0 - rn) * acc - corr, tail + roundoff)


# both memos are keyed by ints and floats: a FieldParams hashes in Python, 5x slower
@functools.lru_cache(maxsize=_CROWN_MEMO)
def _crown_powers(q: int, n: int, alpha: float, n0: int, tol: float, tail_budget: int):
    """The crown sum's powers q**(-k alpha) and q**(-k n), read-only, for k = n0
    up to the first K whose tail bound is below tol, and that bound; None past
    the budget.  The caller has checked the powers at n0, the largest."""
    rn = float(q) ** (-n)
    for K in range(n0, n0 + tail_budget):
        # |exp| <= 1 on the remaining crowns: geometric tail, exact constant
        bound = float(q) ** (-(K + 1) * n) / (1.0 - rn)
        if bound * (1.0 - rn) < tol:
            lams = np.array([float(q) ** (-k * alpha) for k in range(n0, K + 1)])
            weights = np.array([float(q) ** (-k * n) for k in range(n0, K + 1)])
            lams.flags.writeable = weights.flags.writeable = False
            return lams, weights, bound * (1.0 - rn)
    return None


def kernel_series(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Factorial-series evaluator, valid in the guard region only.

    Raises :class:`CancellationError` when |z| * ||x||**(-alpha) exceeds
    ``_SERIES_SWITCH``, or when the largest intermediate term exceeds 1/tol
    times the result magnitude; :class:`ToleranceError` when a term leaves
    the float range or the tail misses tol within ``tail_budget`` terms.
    The returned bound includes a roundoff certificate proportional to the
    largest term.  The guard is checked in logs first; inside it an ||x||
    past the floats raises WindowOverflowError.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    log_u = math.log(abs(z)) + k_x * alpha * math.log(q)  # ln |u|, u = z ||x||**(-alpha)
    if log_u > math.log(2 * _SERIES_SWITCH):  # far past the guard: no power of q is formed
        u = math.exp(log_u) if log_u < 709.0 else math.inf
    else:
        _float_qpow(q, k_x * n)  # ||x||**(-n), formed below
        xnorm = _float_qpow(q, -k_x, "norm")
        u = z * xnorm ** (-alpha)
    if abs(u) > _SERIES_SWITCH:
        msg = f"|z| * ||x||**(-alpha) = {abs(u):.3g} exceeds the series guard {_SERIES_SWITCH}"
        raise CancellationError(msg)
    xn = xnorm ** (-n)
    qa = float(q) ** alpha
    env_c = xn / (1.0 - float(q) ** (-alpha - n))  # |Gamma(k a + n)| <= q**(k a) * this

    acc = 0.0 + 0.0j
    p = 1.0 + 0.0j  # (-u)**k / k!
    env = 1.0  # (|u| q**alpha)**k / k!
    max_term = 0.0
    for k in range(1, cfg.tail_budget + 1):
        p *= -u / k
        env *= abs(u) * qa / k
        try:  # a term, or its modulus, past the float range
            term = p * _series_gamma(q, n, alpha, k) * xn
            max_term = max(max_term, abs(term))
        except (OverflowError, WindowOverflowError):
            term = math.inf
        if not cmath.isfinite(term):
            raise ToleranceError(
                f"kernel series term k={k}, with Gamma_q^(n)({k * alpha + n:g}), leaves "
                f"the float range before the tail reaches tol={cfg.tol} (k_x={k_x}, z={z})"
            )
        acc += term
        ratio = abs(u) * qa / (k + 2)
        if ratio < 1.0:
            tail = env_c * env * (abs(u) * qa / (k + 1)) / (1.0 - ratio)
            if tail < cfg.tol:
                roundoff = 5e-16 * max_term * (k + 1)
                if max_term * cfg.tol > abs(acc):
                    raise CancellationError(
                        f"series cancellation: largest term {max_term:.3g} vs "
                        f"result {abs(acc):.3g}"
                    )
                return EvalResult(acc, tail + roundoff)
    msg = f"{cfg.tail_budget} terms (k_x={k_x}, z={z})"
    raise ToleranceError(f"kernel series did not reach tol={cfg.tol} within {msg}")


@functools.lru_cache(maxsize=2048)
def _series_gamma(q: int, n: int, alpha: float, k: int) -> complex:
    """Gamma_q^(n)(k alpha + n), the series' k-th factor, kept by (q, n, alpha)
    and k; an error is raised afresh on every call, never kept."""
    return gamma_qn(k * alpha + n, FieldParams(q, n, alpha))


def kernel_at_zero(
    z, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """K_z(0) = sum_{j in Z} q**(-j n) D_j: the block value and tail bound at
    the crown -j_first, which sums every term that does not flush to 0.  Its
    terms run both ways from j = 0, so the budget is doubled, one per side."""
    z, cfg = _as_time(z), replace(cfg, tail_budget=2 * cfg.tail_budget)
    return kernel_exp_form(z, -_first_term(z.real, params), params, cfg)


def kernel_ball_integral(
    z, k: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Integral of K_z over the ball G_k.  On the Fourier side it is
    q**(-k n) (1 - q**-n) sum_{j >= -k} exp(-z lam_j) q**(-j n), which
    summation by parts turns into q**(-k n) K_z(k) + exp(-z lam_{-k-1}).  The
    bound is q**(-k n) times the tail bound, plus the final sum's roundoff."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    pref = _float_qpow(q, -k * n)
    res = kernel_exp_form(z, k, params, cfg)
    edge = _cexp(-z * _float_qpow(q, (k + 1) * alpha, "eigenvalue"))
    # scaling and adding round by at most 4 units of 2**-53 of the moduli
    roundoff = 2.0**-53 * 4 * (pref * abs(res.value) + abs(edge))
    return EvalResult(pref * res.value + edge, pref * res.tail_bound + roundoff)


def kernel_profile(
    z, window: tuple[int, int], params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG,
    evaluator=None,
) -> RadialProfile:
    """Kernel values on a crown window as a radial profile: one exp-form
    block by default, else ``evaluator`` crown by crown.  The inner tail is
    left at zero; :func:`kernel_ball_integral` recovers its mass exactly."""
    z = _as_time(z)
    kmin, kmax = window
    if evaluator is None:
        vals = _exp_form_block(z, kmin, kmax, params, cfg)[0]
    else:
        vals = [evaluator(z, k, params, cfg).value for k in range(kmin, kmax + 1)]
    return RadialProfile(params, kmin, kmax, np.asarray(vals, dtype=complex))


def _power_envelope(params: FieldParams, z: complex) -> float:
    """E |z|, with |K_z(x)| <= E |z| / ||x||**(alpha+n) by the termwise exp-form
    bounds, E = (q**alpha - 1) / (1 - q**(-alpha-n)); no float: WindowOverflowError."""
    q, n, alpha = params.q, params.n, params.alpha
    env = (float(q) ** alpha - 1.0) / (1.0 - float(q) ** (-alpha - n)) * abs(z)
    if env == math.inf:
        raise WindowOverflowError(f"envelope E |z| at q={q}, alpha={alpha!r}, z={z} is no float")
    return env


def default_mass_window(z, params: FieldParams, tol: float = 1e-12) -> tuple[int, int]:
    """Crown window outside which the kernel mass is certifiably below tol.

    Outer side from the power envelope (crown-sum tail geometric with ratio
    q**(-alpha)); inner side from |K_z| <= K_{Re z}(0) and the ball measure.
    """
    z = _as_time(z)
    return _mass_window(z, params, tol, kernel_at_zero(z.real + 0j, params).value.real)


def _outer_mass(z: complex, params: FieldParams) -> float:
    """C with mass(K_z outside G_k) <= C q**((k-1) alpha): the sum over
    j < k of E |z| q**(j alpha) (1 - q**-n)."""
    q, n, alpha = params.q, params.n, params.alpha
    outer = _power_envelope(params, z) * (1.0 - q ** float(-n))
    return outer / (1.0 - float(q) ** (-alpha))


def _mass_window(z: complex, params: FieldParams, tol: float, sup: float):
    """:func:`default_mass_window` given sup = K_{Re z}(0)."""
    q, n, alpha = params.q, params.n, params.alpha
    lnq = math.log(q)
    outer = max(_outer_mass(z, params), 1e-300)
    kmin = math.floor(math.log(tol / outer) / (alpha * lnq)) - 1
    ratio = max(sup, 1.0) / tol
    if ratio == math.inf:
        msg = f"mass window K_{{Re z}}(0) / tol = {sup!r} / {tol!r} leaves the float range"
        raise WindowOverflowError(msg)
    kmax = math.ceil(math.log(ratio) / (n * lnq)) + 1
    return min(kmin, 0), max(kmax, 1)


class KernelL1(NamedTuple):
    l1: float
    l1_bound: float
    majorant_l1: float
    majorant_bound: float


def kernel_l1_norm(
    z, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> KernelL1:
    """L^1 norms of K_z and of its radially decreasing majorant.

    Crown moduli come from one exp-form block over an adaptive window; the
    outer tail uses the power envelope |K_z(x)| <= E |z| / ||x||**(alpha+n),
    the inner tail the flat bound sup |K_z| <= K_{Re z}(0).  The majorant
    value is the running sup of |K_z| from the outside in, with the inner
    ball contributing max(running sup, flat bound) * mu(ball) to the upper
    estimate.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    sup_bound = kernel_at_zero(z.real + 0j, params, cfg).value.real
    kmin, kmax = _mass_window(z, params, cfg.tol, sup_bound)
    vals, tail = _exp_form_block(z, kmin, kmax, params, cfg)
    mags_arr = np.abs(vals)
    smeas = _sphere_measures(q, n, kmin, kmax)
    eval_bound = tail * float(np.sum(smeas))
    outer_tail = _outer_mass(z, params) * float(q) ** ((kmin - 1) * alpha)
    ball_in = float(q) ** (-(kmax + 1) * n)

    l1 = float(np.sum(mags_arr * smeas))
    l1_bound = outer_tail + sup_bound * ball_in + eval_bound

    run = np.maximum.accumulate(mags_arr)
    maj_inner = max(float(run[-1]), sup_bound) * ball_in
    maj = float(np.sum(run * smeas)) + maj_inner
    maj_bound = outer_tail + (maj_inner - float(run[-1]) * ball_in) + eval_bound

    return KernelL1(l1, l1_bound, maj, maj_bound)


def bound_ratios(
    z, window: tuple[int, int], params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> tuple[np.ndarray, np.ndarray]:
    """|K_z| and :func:`bound_ratio` on every crown of a window, from one
    exp-form block; an ||x|| or factor past the floats raises WindowOverflowError."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    kmin, kmax = window
    mags = np.abs(_exp_form_block(z, kmin, kmax, params, cfg)[0])
    try:
        with np.errstate(over="raise"):
            xnorm = float(q) ** -np.arange(kmin, kmax + 1, dtype=float)
            factor = (z.real ** (1.0 / alpha) + xnorm) ** (alpha + n)
            return mags, mags * factor / abs(z)
    except (OverflowError, FloatingPointError):
        msg = f"estimate factor at Re z = {z.real!r}, ||x|| = {q}**{-kmin} is no finite float"
        raise WindowOverflowError(msg) from None


def bound_ratio(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> float:
    """|K_z(x)| * ((Re z)**(1/alpha) + ||x||)**(alpha+n) / |z|."""
    return float(bound_ratios(z, (k_x, k_x), params, cfg)[1][0])

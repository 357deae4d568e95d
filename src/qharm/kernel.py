"""Complex-time heat kernel of the Taibleson semigroup on K^n.

K_z is the Fourier transform of xi -> exp(-z * ||xi||**alpha), Re z > 0.
Three independent evaluators are provided for x != 0:

* ``kernel_crown_sum``: the partial closed form obtained by integrating the
  Fourier integral crown by crown,
      (1 - q**-n) * sum_{k >= n0} exp(-z q**(-k alpha)) q**(-k n)
          - exp(-z q**alpha / ||x||**alpha) * ||x||**(-n),
  with ||x|| = q**n0.  Truncation tail after K terms is bounded by
  q**(-(n0+K) n) because |exp(-z q**(-k alpha))| <= 1.

* ``kernel_exp_form``: the telescoped exponential-difference series
      sum_{l >= 0} q**(-l n) ||x||**(-n)
          * (exp(-q**(-l alpha) w) - exp(-q**((1-l) alpha) w)),
  w = z ||x||**(-alpha); term l is bounded by
  q**(-l n) ||x||**(-n) min(2, |w| q**(-l alpha) (q**alpha - 1)).
  Unconditionally stable (all exponents have negative real part); this is
  the production evaluator.

* ``kernel_series``: the factorial series
      sum_{k >= 1} (-z)**k / k! * Gamma_q^{(n)}(k alpha + n) / ||x||**(k alpha + n),
  guarded against catastrophic cancellation and demoted to a cross-check.

Every evaluator returns the value together with a rigorous bound on the
truncation (plus, for the series, roundoff) error; comparisons should use
value +- bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CancellationError, ToleranceError
from .field import FieldParams
from .gamma import gamma_qn
from .radial import LOG_FLOOR, RadialProfile


@dataclass(frozen=True)
class ComplexTime:
    """A time parameter in the open right half-plane."""

    z: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        if not self.z.real > 0:
            raise ValueError(f"complex time needs Re z > 0, got {self.z}")


def _as_time(z) -> complex:
    if isinstance(z, ComplexTime):
        return z.z
    return ComplexTime(z).z


@dataclass(frozen=True)
class KernelEvalConfig:
    """Truncation budget, target tolerance and series guard threshold."""

    tail_budget: int = 192
    tol: float = 1e-13
    series_switch: float = 8.0

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


def _cexpm1(w: complex) -> complex:
    """exp(w) - 1 without cancellation for small |w| (complex expm1)."""
    if abs(w) < 1e-4:
        return w * (1.0 + w / 2.0 * (1.0 + w / 3.0 * (1.0 + w / 4.0)))
    if w.real < LOG_FLOOR:
        return -1.0 + 0.0j
    return cmath.exp(w) - 1.0


def kernel_exp_form(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Exponential-difference evaluator at ||x|| = q**(-k_x)."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    xnorm = float(q) ** (-k_x)
    w = z * xnorm ** (-alpha)
    qa = float(q) ** alpha
    rn = float(q) ** (-n)
    ra = float(q) ** (-alpha)
    xn = xnorm ** (-n)
    geo = 1.0 / (1.0 - rn * ra)

    acc = 0.0 + 0.0j
    wl = w  # q**(-l*alpha) * w
    scale = xn  # q**(-l*n) * ||x||**(-n)
    for _l in range(cfg.tail_budget):
        # exp(-wl) - exp(-wl*qa) = -exp(-wl) * expm1(-wl*(qa-1)), cancellation-free
        acc -= scale * _cexp(-wl) * _cexpm1(-wl * (qa - 1.0))
        wl *= ra
        scale *= rn
        # remaining tail: sum_{l' > l} scale' * min(2, |w_l'|(q**alpha - 1))
        bound = scale * min(2.0, abs(wl) * (qa - 1.0)) * geo
        if bound < cfg.tol:
            return EvalResult(acc, bound)
    raise ToleranceError(
        f"kernel exp-form did not reach tol={cfg.tol} within "
        f"{cfg.tail_budget} terms (k_x={k_x}, z={z})"
    )


def kernel_crown_sum(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Crown-by-crown Fourier sum, the oracle evaluator, at ||x|| = q**(-k_x)."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    n0 = -k_x  # ||x|| = q**n0
    rn = float(q) ** (-n)
    acc = 0.0 + 0.0j
    k = n0
    for _ in range(cfg.tail_budget):
        acc += _cexp(-z * float(q) ** (-k * alpha)) * float(q) ** (-k * n)
        k += 1
        # |exp| <= 1 on the remaining crowns: geometric tail, exact constant
        bound = float(q) ** (-k * n) / (1.0 - rn)
        if bound * (1.0 - rn) < cfg.tol:  # tail of (1-q**-n) * sum
            xnorm = float(q) ** n0
            corr = _cexp(-z * float(q) ** alpha * xnorm ** (-alpha)) * xnorm ** (-n)
            return EvalResult((1.0 - rn) * acc - corr, bound * (1.0 - rn))
    raise ToleranceError(
        f"kernel crown sum did not reach tol={cfg.tol} within "
        f"{cfg.tail_budget} terms (k_x={k_x}, z={z})"
    )


def kernel_series(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Factorial-series evaluator, valid in the guard region only.

    Raises :class:`CancellationError` when |z| * ||x||**(-alpha) exceeds
    cfg.series_switch, or when the largest intermediate term exceeds 1/tol
    times the result magnitude.  The returned bound includes a roundoff
    certificate proportional to the largest term.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    xnorm = float(q) ** (-k_x)
    u = z * xnorm ** (-alpha)
    if abs(u) > cfg.series_switch:
        raise CancellationError(
            f"|z| * ||x||**(-alpha) = {abs(u):.3g} exceeds the series guard "
            f"{cfg.series_switch}"
        )
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
        term = p * gamma_qn(k * alpha + n, params) * xn
        acc += term
        max_term = max(max_term, abs(term))
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
    raise ToleranceError(
        f"kernel series did not reach tol={cfg.tol} within "
        f"{cfg.tail_budget} terms (k_x={k_x}, z={z})"
    )


def kernel_at_zero(
    z, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """K_z(0) = (1 - q**-n) * sum_{k in Z} exp(-z q**(-k alpha)) q**(-k n).

    Two-sided truncation: the k -> +infinity tail is geometric in q**(-n),
    the k -> -infinity tail decays doubly exponentially.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    rn = float(q) ** (-n)
    acc = 0.0 + 0.0j
    bound = 0.0

    k = 0
    for _ in range(cfg.tail_budget):
        acc += _cexp(-z * float(q) ** (-k * alpha)) * float(q) ** (-k * n)
        k += 1
        tail = float(q) ** (-k * n) / (1.0 - rn)
        if tail * (1.0 - rn) < cfg.tol / 2:
            bound += tail * (1.0 - rn)
            break
    else:
        raise ToleranceError("kernel_at_zero: inner tail budget exhausted")

    lnq = math.log(q)
    k = -1
    for _ in range(cfg.tail_budget):
        # log term magnitudes; the outward step ratio is monotone decreasing,
        # so one step ratio < 1/2 certifies a geometric tail
        logmag = -z.real * float(q) ** (-k * alpha) - k * n * lnq
        lognxt = -z.real * float(q) ** (-(k - 1) * alpha) - (k - 1) * n * lnq
        if logmag < math.log(cfg.tol / 4) and lognxt < logmag - math.log(2.0):
            bound += 2.0 * math.exp(max(LOG_FLOOR, logmag)) * (1.0 - rn)
            break
        acc += _cexp(-z * float(q) ** (-k * alpha)) * float(q) ** (-k * n)
        k -= 1
    else:
        raise ToleranceError("kernel_at_zero: outer tail budget exhausted")

    return EvalResult((1.0 - rn) * acc, bound)


def kernel_ball_integral(
    z, k: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> EvalResult:
    """Exact-form integral of K_z over the ball G_k.

    Pairing the kernel against the ball indicator moves the integral to the
    Fourier side: q**(-k n) (1 - q**-n) sum_{j >= -k} exp(-z q**(-j alpha))
    q**(-j n), truncated with the geometric tail.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    rn = float(q) ** (-n)
    pref = float(q) ** (-k * n)
    acc = 0.0 + 0.0j
    j = -k
    for _ in range(cfg.tail_budget):
        acc += _cexp(-z * float(q) ** (-j * alpha)) * float(q) ** (-j * n)
        j += 1
        tail = pref * float(q) ** (-j * n) / (1.0 - rn) * (1.0 - rn)
        if tail < cfg.tol:
            return EvalResult(pref * (1.0 - rn) * acc, tail)
    raise ToleranceError("kernel ball integral: tail budget exhausted")


def _crown_cfg(cfg: KernelEvalConfig, k: int, params: FieldParams) -> KernelEvalConfig:
    """Tighten the absolute tolerance at outer crowns so that the
    measure-weighted truncation error q**(-k*n) * tol stays below cfg.tol."""
    scale = min(1.0, float(params.q) ** (k * params.n))
    if scale == 1.0:
        return cfg
    return KernelEvalConfig(cfg.tail_budget, cfg.tol * scale, cfg.series_switch)


def kernel_profile(
    z,
    window: tuple[int, int],
    params: FieldParams,
    cfg: KernelEvalConfig = DEFAULT_CFG,
    evaluator=kernel_exp_form,
) -> RadialProfile:
    """Kernel values on a crown window as a radial profile.

    Per-crown tolerances are scaled by the sphere measure, so the window sum
    of |error| * mu(S_k) stays near cfg.tol per crown.  The inner tail is
    left at zero: the truncation it introduces is bounded by
    sup |K_z| * mu(G_{kmax+1}) and can be recovered exactly through
    :func:`kernel_ball_integral`.  K_z(0) itself is available separately via
    :func:`kernel_at_zero`.
    """
    z = _as_time(z)
    kmin, kmax = window
    vals = np.array(
        [
            evaluator(z, k, params, _crown_cfg(cfg, k, params)).value
            for k in range(kmin, kmax + 1)
        ],
        dtype=complex,
    )
    return RadialProfile(params, kmin, kmax, vals)


def _power_envelope(params: FieldParams) -> float:
    """Constant E with |K_z(x)| <= E * |z| / ||x||**(alpha+n), from the
    termwise exp-form bounds: E = (q**alpha - 1) / (1 - q**(-alpha-n))."""
    q, n, alpha = params.q, params.n, params.alpha
    return (float(q) ** alpha - 1.0) / (1.0 - float(q) ** (-alpha - n))


def default_mass_window(z, params: FieldParams, tol: float = 1e-12) -> tuple[int, int]:
    """Crown window outside which the kernel mass is certifiably below tol.

    Outer side from the power envelope (crown-sum tail geometric with ratio
    q**(-alpha)); inner side from |K_z| <= K_{Re z}(0) and the ball measure.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    lnq = math.log(q)
    # sum_{j <= J} E |z| q**(j alpha) (1 - q**-n) <= tol
    outer = (
        _power_envelope(params)
        * abs(z)
        * (1.0 - q ** float(-n))
        / (1.0 - float(q) ** (-alpha))
    )
    kmin = math.floor(math.log(tol / max(outer, 1e-300)) / (alpha * lnq)) - 1
    sup = kernel_at_zero(z.real + 0j, params).value.real
    kmax = math.ceil(math.log(max(sup, 1.0) / tol) / (n * lnq)) + 1
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

    Crown moduli are summed over an adaptive window; the outer tail uses the
    power envelope |K_z(x)| <= |z| / ||x||**(alpha+n), the inner tail the
    flat bound sup |K_z| <= K_{Re z}(0).  The majorant value is the running
    sup of |K_z| from the outside in, with the inner ball contributing
    max(running sup, flat bound) * mu(ball) to the upper estimate.
    """
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    tol = cfg.tol
    kmin, kmax = default_mass_window(z, params, tol=tol)
    sup_bound = kernel_at_zero(z.real + 0j, params, cfg).value.real

    mags = []
    eval_bound = 0.0
    for k in range(kmin, kmax + 1):
        v = kernel_exp_form(z, k, params, _crown_cfg(cfg, k, params))
        mags.append(abs(v.value))
        eval_bound += v.tail_bound * (1.0 - float(q) ** (-n)) * float(q) ** (-k * n)
    mags_arr = np.array(mags)
    ks = np.arange(kmin, kmax + 1, dtype=float)
    smeas = (1.0 - float(q) ** (-n)) * np.power(float(q), -ks * n)

    outer_tail = (
        _power_envelope(params)
        * abs(z)
        * (1.0 - float(q) ** (-n))
        * float(q) ** ((kmin - 1) * alpha)
        / (1.0 - float(q) ** (-alpha))
    )
    ball_in = float(q) ** (-(kmax + 1) * n)
    inner_tail = sup_bound * ball_in

    l1 = float(np.sum(mags_arr * smeas))
    l1_bound = outer_tail + inner_tail + eval_bound

    run = np.maximum.accumulate(mags_arr)
    maj_inner = max(float(run[-1]), sup_bound) * ball_in
    maj = float(np.sum(run * smeas)) + maj_inner
    maj_bound = outer_tail + (maj_inner - float(run[-1]) * ball_in) + eval_bound

    return KernelL1(l1, l1_bound, maj, maj_bound)


def bound_ratio(
    z, k_x: int, params: FieldParams, cfg: KernelEvalConfig = DEFAULT_CFG
) -> float:
    """|K_z(x)| * ((Re z)**(1/alpha) + ||x||)**(alpha+n) / |z|."""
    z = _as_time(z)
    q, n, alpha = params.q, params.n, params.alpha
    xnorm = float(q) ** (-k_x)
    val = abs(kernel_exp_form(z, k_x, params, cfg).value)
    return val * (z.real ** (1.0 / alpha) + xnorm) ** (alpha + n) / abs(z)

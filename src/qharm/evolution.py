"""Spectral solver for the master equation y'(t) + D^alpha y(t) = f(t).

On the Fourier diagonal each crown m evolves independently with eigenvalue
lam_m = q**(-m*alpha) > 0, and for piecewise-constant-in-time forcing the
variation-of-constants solution is exact:

    yhat_m(t) = exp(-t lam) xhat0_m
        + sum over intervals [a, b) of fhat_m * (exp(-lam (t-b')) -
          exp(-lam (t-a))) / lam,        b' = min(b, t),

with the t-linear limit (b' - a) at lam = 0, which the constant inner
tail carries.  The Fourier window is extended by the rule in
:mod:`qharm.radial`: up to the time horizon T, exp(-t lam) moves by at most
T lam from its limit and a Duhamel factor by at most T**2 lam.  The
maximal-regularity report integrates ||D^alpha y(t)||_{q_space} over time
with the trapezoid rule on a grid that contains every forcing breakpoint.
x0 and the forcing profiles are one transform block (x0 apart only on a
window of its own), padded and given eigenvalues by the one window step of
:mod:`qharm.radial`.  The exact solver and the report take their times as
the rows of one transform block (the report in chunks of
``BLOCK_ELEMENTS``).  RK4 raises every interval's one-step map, a row each,
to its step count by binary powering of the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .errors import ToleranceError
from .field import FieldParams
from .radial import LOG_FLOOR, RadialProfile, lp_norm

BLOCK_ELEMENTS = 1 << 15  # most time x crown values one report block holds


@dataclass(frozen=True)
class ForcingSignal:
    """Piecewise-constant-in-time forcing: breakpoints and one profile each."""

    breakpoints: tuple[float, ...]
    profiles: tuple[RadialProfile, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        if len(bp) < 2 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and bound each interval")
        if not all(math.isfinite(t) for t in bp):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.profiles) != len(bp) - 1:
            raise ValueError(
                f"{len(bp) - 1} intervals need as many profiles, "
                f"got {len(self.profiles)}"
            )
        if len({(prof.kmin, prof.kmax, prof.params) for prof in self.profiles}) > 1:
            raise ValueError("all forcing profiles must share one crown window")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "profiles", tuple(self.profiles))

    @property
    def T(self) -> float:
        return self.breakpoints[-1]

    @property
    def params(self) -> FieldParams:
        return self.profiles[0].params

    @classmethod
    def constant(cls, profile: RadialProfile, T: float) -> "ForcingSignal":
        return cls((0.0, T), (profile,))


def _duhamel_factors(lams: np.ndarray, times: np.ndarray, a, b) -> np.ndarray:
    """int_a^{min(b,t)} exp(-lam (t-s)) ds for the column of ``times`` (rows)
    and the eigenvalues ``lams`` (columns), stable for small lam * t; for
    arrays a and b of shape (intervals, 1, 1), one such block per interval."""
    b_eff = np.minimum(b, times)
    width = np.maximum(b_eff - a, 0.0)
    # exp(-lam(t-b')) - exp(-lam(t-a)) = -exp(-lam(t-b')) * expm1(-lam(b'-a))
    lead = np.exp(np.maximum(LOG_FLOOR, -lams * (times - b_eff)))
    safe = np.where(lams == 0.0, 1.0, lams)
    out = np.where(lams == 0.0, width, -lead * np.expm1(-lams * width) / safe)
    return np.where(b_eff > a, out, 0.0)


def _fourier_window(x0: RadialProfile | None, profiles, horizon: float):
    """Transform x0 (None when there is none) and the forcing profiles, one
    block per input window, onto one Fourier window extended for times up
    to ``horizon``; returns ``(kmin, kmax, H, tails, lams)``, row i of H with
    inner tail tails[i] the padded transform of input i (x0 first)."""
    rows = [*([] if x0 is None else [x0]), *profiles]
    params = rows[0].params
    blocks = [  # the forcing shares one window; x0 joins its block when on it too
        radial._fourier_block(params, g[0].kmin, g[0].kmax, np.array([f.coeffs for f in g]),
                              np.array([f.tail for f in g]))
        for g in ([rows] if len({(f.kmin, f.kmax) for f in rows}) == 1 else [rows[:1], rows[1:]])
    ]
    tails = np.concatenate([blk[3] for blk in blocks])
    mods = [abs(t) for t in tails.tolist()]  # x0's first, when there is one
    lip = (0.0 if x0 is None else mods.pop(0)) * horizon + sum(mods) * horizon**2
    kmin = min(blk[0] for blk in blocks)
    kmax = radial._extension_depth(params, max(blk[1] for blk in blocks), lip)
    H, lams = zip(*(radial._extend(params, *blk, kmin, kmax) for blk in blocks))
    return kmin, kmax, np.vstack(H), tails, lams[0]


def _check_times(x0: RadialProfile, forcing: ForcingSignal | None, times) -> None:
    """Raise ValueError unless every time is finite and in [0, T] of a forcing on x0's field."""
    if not all(math.isfinite(t) for t in times):
        raise ValueError("output times must be finite")
    if any(t < 0 for t in times):
        raise ValueError("output times must be nonnegative")
    if forcing is not None:
        if forcing.params != x0.params:
            raise ValueError("forcing and initial state field parameters disagree")
        if any(t > forcing.T + 1e-12 for t in times):
            raise ValueError("output times must lie in [0, T]")


def solve_master(
    x0: RadialProfile,
    forcing: ForcingSignal | None,
    out_times,
) -> list[RadialProfile]:
    """Mild solution y(t) = T_t x0 + int_0^t T_{t-s} f(s) ds at the out_times.

    Exact per Fourier crown for piecewise-constant forcing; each output time
    yields one profile.  Raises :class:`WindowOverflowError` when the window
    extension exceeds ``radial.MAX_EXT`` crowns, or when a crown weight or
    an eigenvalue of the window leaves the float range.
    """
    params = x0.params
    out_times = [float(t) for t in out_times]
    _check_times(x0, forcing, out_times)

    profiles, bps = (forcing.profiles, forcing.breakpoints) if forcing is not None else ((), ())
    kmin, kmax, H, htails, lams = _fourier_window(x0, profiles, max(out_times, default=0.0))

    ts = np.array(out_times, dtype=float)[:, None]  # one row per output time
    coef = H[0] * np.exp(-ts * lams)
    tails = np.full(len(out_times), htails[0])  # lam -> 0 limit of exp(-t lam) is 1
    edges = np.array(bps, dtype=float)[:, None, None]  # every interval's factors in one block
    duhamel = _duhamel_factors(lams, ts, edges[:-1], edges[1:])
    for fc, ft, D, a, b in zip(H[1:], htails[1:], duhamel, bps, bps[1:]):
        coef = coef + fc * D
        tails = tails + ft * np.maximum(0.0, np.minimum(b, ts[:, 0]) - a)
    kmin, kmax, out, otails = radial._fourier_block(params, kmin, kmax, coef, tails)
    return [RadialProfile(params, kmin, kmax, row, tail=t) for row, t in zip(out, otails)]


def _rk4_gain(x: float) -> float:
    """RK4's amplification factor R(-x) = 1 - x + x**2/2 - x**3/6 + x**4/24
    on y' = -lam y, at x = lam * h."""
    return 1.0 + x * (-1.0 + x * (0.5 + x * (-1.0 / 6.0 + x / 24.0)))


def solve_master_rk4(
    x0: RadialProfile,
    forcing: ForcingSignal,
    t_end: float,
    steps_per_interval: int = 4096,
) -> RadialProfile:
    """Classical fourth-order Runge-Kutta oracle on the diagonal system.

    Integrates yhat' = -lam yhat + fhat(t) per Fourier crown with fixed
    steps inside each forcing interval; ``steps_per_interval`` is a budget
    over [0, T], shared out by interval length.  Independent of the closed-form
    exponential route: one step is y -> y + (d y + e), d = R(-x) - 1 = -x P,
    e = h P fhat, P = 1 - x/2 + x**2/6 - x**3/24 at x = lam * h, and binary
    powers of that map, (d, e) -> (d (2 + d), e (2 + d)), one block row per
    interval, take all steps at once.  Raises :class:`ToleranceError`, with
    the steps the interval needs, when a step is unstable for the stiffest
    crown, i.e. RK4's amplification factor R(-lam_max * h) exceeds 1;
    ValueError for a t_end not finite or outside [0, T], disagreeing fields
    or steps_per_interval < 1.
    """
    _check_times(x0, forcing, [t_end])
    if steps_per_interval < 1:
        raise ValueError("steps_per_interval must be positive")
    kmin, kmax, H, htails, lams = _fourier_window(x0, forcing.profiles, t_end)
    lam_max = float(lams.max())
    bps, runs = forcing.breakpoints, []  # (a, b_eff, nsteps) per interval that runs
    for a, b_eff in [(a, min(b, t_end)) for a, b in zip(bps, bps[1:]) if a < t_end]:
        nsteps = max(1, int(math.ceil(steps_per_interval * (b_eff - a) / forcing.T)))
        span = lam_max * (b_eff - a)
        if _rk4_gain(span / nsteps) > 1:
            need, hi = nsteps, max(nsteps, math.ceil(span))  # lam_max*h <= 1 is stable
            while need < hi:  # bisect for the least stable step count
                mid = (need + hi) // 2
                need, hi = (mid + 1, hi) if _rk4_gain(span / mid) > 1 else (need, mid)
            raise ToleranceError(
                f"RK4 unstable on [{a}, {b_eff}]: lam_max*h = {span / nsteps:.4g} with "
                f"{nsteps} steps, needs {need}"
            )
        runs.append((a, b_eff, nsteps))

    # every interval's step map (d, e) is a row; levels[l] holds their 2**l-th powers
    h = np.array([(b_eff - a) / nsteps for a, b_eff, nsteps in runs])[:, None]
    x = lams * h
    poly = 1.0 + x * (-0.5 + x * (1.0 / 6.0 - x / 24.0))
    levels = [(-x * poly, h * poly * H[1 : 1 + len(runs)])]
    for _ in range(1, max((r[2] for r in runs), default=0).bit_length()):
        two = 2.0 + levels[-1][0]  # the maps composed with themselves
        levels.append((levels[-1][0] * two, levels[-1][1] * two))
    y, tail = H[0], complex(htails[0])
    for r, (a, b_eff, nsteps) in enumerate(runs):  # each interval's set bits, low first
        for d, e in (lv for bit, lv in enumerate(levels) if nsteps >> bit & 1):
            y = y + (d[r] * y + e[r])
        tail = tail + complex(htails[r + 1]) * (b_eff - a)  # lam = 0 integrates f directly

    kmin, kmax, out, otails = radial._fourier_block(x0.params, kmin, kmax, y[None, :],
                                                     np.array([tail]))
    return RadialProfile(x0.params, kmin, kmax, out[0], tail=complex(otails[0]))


def max_regularity_report(
    forcing: ForcingSignal,
    p: float = 2.0,
    q_space: float = 2.0,
    n_time: int = 4097,
) -> float:
    """Ratio ||D^alpha y|| / ||f|| in L^p([0,T]; L^{q_space}), x0 = 0.

    Time integration is the trapezoid rule on a uniform grid merged with
    the forcing breakpoints (the integrand is smooth inside each interval);
    the forcing norm is exact for piecewise-constant signals.  Accuracy
    requires (lam_max * dt)**2 well below the target tolerance.  A p outside
    [1, inf), NaN too, raises ValueError before any work.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    params = forcing.params
    T = forcing.T
    den = sum(
        lp_norm(pr, q_space) ** p * (b - a)
        for pr, a, b in zip(forcing.profiles, forcing.breakpoints, forcing.breakpoints[1:])
    ) ** (1.0 / p)
    if den == 0:
        raise ValueError("zero forcing")
    grid = np.union1d(np.linspace(0.0, T, n_time), np.array(forcing.breakpoints))

    kmin, kmax, H, _, lams = _fourier_window(None, forcing.profiles, T)

    norms, edges = [], np.array(forcing.breakpoints)[:, None, None]
    rows = max(1, BLOCK_ELEMENTS // (lams.size * len(H)))  # a block holds every interval's
    for start in range(0, grid.size, rows):
        ts = grid[start : start + rows, None]
        coef = np.zeros((ts.shape[0], lams.size), dtype=complex)
        for fc, D in zip(H, _duhamel_factors(lams, ts, edges[:-1], edges[1:])):
            coef += fc * D
        okmin, okmax, out, otails = radial._fourier_block(params, kmin, kmax, coef * lams)
        norms += radial._lp_norms(params, okmin, okmax, out, otails, q_space)

    num = float(np.trapezoid(np.array(norms) ** p, grid)) ** (1.0 / p)
    return num / den

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
The exact solver and the report take their times as the rows of one
transform block (the report in chunks of ``BLOCK_ELEMENTS``).  RK4 raises
its affine one-step map per crown to the step count by binary powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .errors import ToleranceError
from .field import FieldParams
from .radial import LOG_FLOOR, RadialProfile, lp_norm, radial_fourier

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
        first = self.profiles[0]
        for prof in self.profiles:
            if (prof.kmin, prof.kmax, prof.params) != (
                first.kmin,
                first.kmax,
                first.params,
            ):
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


def _duhamel_factors(lams: np.ndarray, times: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^{min(b,t)} exp(-lam (t-s)) ds for the column of ``times`` (rows)
    and the eigenvalues ``lams`` (columns), stable for small lam * t."""
    b_eff = np.minimum(b, times)
    width = np.maximum(b_eff - a, 0.0)
    # exp(-lam(t-b')) - exp(-lam(t-a)) = -exp(-lam(t-b')) * expm1(-lam(b'-a))
    lead = np.exp(np.maximum(LOG_FLOOR, -lams * (times - b_eff)))
    safe = np.where(lams == 0.0, 1.0, lams)
    out = np.where(lams == 0.0, width, -lead * np.expm1(-lams * width) / safe)
    return np.where(b_eff > a, out, 0.0)


def _fourier_window(
    x0: RadialProfile | None, profiles, horizon: float
) -> tuple[RadialProfile | None, list[RadialProfile], np.ndarray]:
    """Transform x0 (None when there is none) and the forcing profiles onto
    one Fourier window, extended for times up to ``horizon``; returns the
    padded transforms and their eigenvalues."""
    xh = None if x0 is None else radial_fourier(x0)
    fhs = [radial_fourier(p) for p in profiles]
    hats = fhs if xh is None else [xh, *fhs]
    kmin = min(h.kmin for h in hats)
    kmax = max(h.kmax for h in hats)
    x_tail = 0.0 if xh is None else abs(xh.tail)
    lip = x_tail * horizon + sum(abs(fh.tail) for fh in fhs) * horizon**2
    params = hats[0].params
    ext_to = radial._extension_depth(params, kmax, lip)
    fhs = [fh.padded(kmin, ext_to) for fh in fhs]
    xh = None if xh is None else xh.padded(kmin, ext_to)
    return xh, fhs, radial._eigenvalues(params, kmin, ext_to)


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
    extension exceeds ``radial.MAX_EXT`` crowns.
    """
    params = x0.params
    out_times = [float(t) for t in out_times]
    _check_times(x0, forcing, out_times)

    t_top = max(out_times) if out_times else 0.0
    profiles = forcing.profiles if forcing is not None else ()
    xh, fhs, lams = _fourier_window(x0, profiles, t_top)

    ts = np.array(out_times, dtype=float)[:, None]  # one row per output time
    coef = xh.coeffs * np.exp(-ts * lams)
    tails = np.full(len(out_times), xh.tail)  # lam -> 0 limit of exp(-t lam) is 1
    if forcing is not None:
        for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
            coef = coef + fh.coeffs * _duhamel_factors(lams, ts, a, b)
            tails = tails + fh.tail * np.maximum(0.0, np.minimum(b, ts[:, 0]) - a)
    kmin, kmax, out, otails = radial._fourier_block(params, xh.kmin, xh.kmax, coef, tails)
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
    powers of that map, (d, e) -> (d (2 + d), e (2 + d)), take all of an
    interval's steps at once.  Raises :class:`ToleranceError`, with the steps
    the interval needs, when a step is unstable for the stiffest crown, i.e.
    RK4's amplification factor R(-lam_max * h) exceeds 1; ValueError for a
    t_end not finite or outside [0, T], disagreeing fields or
    steps_per_interval < 1.
    """
    _check_times(x0, forcing, [t_end])
    if steps_per_interval < 1:
        raise ValueError("steps_per_interval must be positive")
    xh, fhs, lams = _fourier_window(x0, forcing.profiles, t_end)
    lam_max = float(lams.max())
    y = xh.coeffs.copy()
    tail = xh.tail

    for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
        if a >= t_end:
            break
        b_eff = min(b, t_end)
        nsteps = max(1, int(math.ceil(steps_per_interval * (b_eff - a) / forcing.T)))
        h = (b_eff - a) / nsteps
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
        x = lams * h
        poly = 1.0 + x * (-0.5 + x * (1.0 / 6.0 - x / 24.0))
        d, e = -x * poly, h * poly * fh.coeffs
        while True:  # apply the step's nsteps-th power, one bit at a time
            if nsteps & 1:
                y = y + (d * y + e)
            nsteps >>= 1
            if not nsteps:
                break
            d, e = d * (2.0 + d), e * (2.0 + d)  # the map composed with itself
        tail = tail + fh.tail * (b_eff - a)  # lam = 0 branch integrates f directly

    prof = RadialProfile(x0.params, xh.kmin, xh.kmax, y, tail=tail)
    return radial_fourier(prof)


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
    requires (lam_max * dt)**2 well below the target tolerance.
    """
    params = forcing.params
    T = forcing.T
    den = sum(
        lp_norm(pr, q_space) ** p * (b - a)
        for pr, a, b in zip(forcing.profiles, forcing.breakpoints, forcing.breakpoints[1:])
    ) ** (1.0 / p)
    if den == 0:
        raise ValueError("zero forcing")
    grid = np.union1d(np.linspace(0.0, T, n_time), np.array(forcing.breakpoints))

    _, fhs, lams = _fourier_window(None, forcing.profiles, T)
    kmin, kmax = fhs[0].kmin, fhs[0].kmax

    norms = []
    rows = max(1, BLOCK_ELEMENTS // lams.size)
    for start in range(0, grid.size, rows):
        ts = grid[start : start + rows, None]
        coef = np.zeros((ts.shape[0], lams.size), dtype=complex)
        for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
            coef += fh.coeffs * _duhamel_factors(lams, ts, a, b)
        okmin, okmax, out, otails = radial._fourier_block(params, kmin, kmax, coef * lams)
        norms += radial._lp_norms(params, okmin, okmax, out, otails, q_space)

    num = float(np.trapezoid(np.array(norms) ** p, grid)) ** (1.0 / p)
    return num / den

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .field import FieldParams
from .radial import LOG_FLOOR, RadialProfile, lp_norm, radial_fourier


@dataclass(frozen=True)
class ForcingSignal:
    """Piecewise-constant-in-time forcing: breakpoints and one profile each."""

    breakpoints: tuple[float, ...]
    profiles: tuple[RadialProfile, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        if len(bp) < 2 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0 and bound each interval")
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


def _duhamel_factors(lams: np.ndarray, t: float, a: float, b: float) -> np.ndarray:
    """int_a^{min(b,t)} exp(-lam (t-s)) ds per eigenvalue, stable for small
    lam * t."""
    b_eff = min(b, t)
    if b_eff <= a:
        return np.zeros_like(lams)
    # exp(-lam(t-b')) - exp(-lam(t-a)) = -exp(-lam(t-b')) * expm1(-lam(b'-a))
    lead = np.exp(np.maximum(LOG_FLOOR, -lams * (t - b_eff)))
    safe = np.where(lams == 0.0, 1.0, lams)
    out = -lead * np.expm1(-lams * (b_eff - a)) / safe
    return np.where(lams == 0.0, b_eff - a, out)


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
    if any(t < 0 for t in out_times):
        raise ValueError("output times must be nonnegative")
    if forcing is not None:
        if forcing.params != params:
            raise ValueError("forcing and initial state field parameters disagree")
        if any(t > forcing.T + 1e-12 for t in out_times):
            raise ValueError("output times must lie in [0, T]")

    t_top = max(out_times) if out_times else 0.0
    profiles = forcing.profiles if forcing is not None else ()
    xh, fhs, lams = _fourier_window(x0, profiles, t_top)

    outs = []
    for t in out_times:
        coef = xh.coeffs * np.exp(-t * lams)
        tail = xh.tail  # lam -> 0 limit of exp(-t lam) is 1
        if forcing is not None:
            for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
                coef = coef + fh.coeffs * _duhamel_factors(lams, t, a, b)
                tail = tail + fh.tail * max(0.0, min(b, t) - a)
        prof = RadialProfile(params, xh.kmin, xh.kmax, coef, tail=tail)
        outs.append(radial_fourier(prof, direction="inverse"))
    return outs


def solve_master_rk4(
    x0: RadialProfile,
    forcing: ForcingSignal,
    t_end: float,
    steps_per_interval: int = 4096,
) -> RadialProfile:
    """Classical fourth-order Runge-Kutta oracle on the diagonal system.

    Integrates yhat' = -lam yhat + fhat(t) per Fourier crown with fixed
    steps inside each forcing interval; independent of the closed-form
    exponential route.
    """
    xh, fhs, lams = _fourier_window(x0, forcing.profiles, t_end)
    y = xh.coeffs.copy()
    tail = xh.tail

    for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
        if a >= t_end:
            break
        b_eff = min(b, t_end)
        nsteps = max(1, int(math.ceil(steps_per_interval * (b_eff - a) / forcing.T)))
        h = (b_eff - a) / nsteps
        fc = fh.coeffs

        def rhs(v):
            return -lams * v + fc

        for _ in range(nsteps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        tail = tail + fh.tail * (b_eff - a)  # lam = 0 branch integrates f directly

    prof = RadialProfile(x0.params, xh.kmin, xh.kmax, y, tail=tail)
    return radial_fourier(prof, direction="inverse")


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

    norms = np.empty(grid.size)
    for i, t in enumerate(grid):
        coef = np.zeros(lams.size, dtype=complex)
        for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
            coef += fh.coeffs * _duhamel_factors(lams, float(t), a, b)
        dhat = RadialProfile(params, kmin, kmax, coef * lams)
        norms[i] = lp_norm(radial_fourier(dhat, direction="inverse"), q_space)

    num = float(np.trapezoid(norms**p, grid)) ** (1.0 / p)
    return num / den

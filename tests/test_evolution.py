import math
import warnings

import numpy as np
import pytest

from qharm import evolution, radial
from qharm.calculus import semigroup_apply
from qharm.errors import ToleranceError, WindowOverflowError
from qharm.evolution import (
    ForcingSignal,
    _duhamel_factors,
    _rk4_gain,
    max_regularity_report,
    solve_master,
    solve_master_rk4,
)
from qharm.field import FieldParams
from qharm.radial import RadialProfile, lp_norm, radial_fourier

from conftest import make_profile

P21 = FieldParams(2, 1, 1.0)


def same_profile(a, b):
    """Bit for bit: the same window, coefficients and inner tail."""
    same_window = (a.kmin, a.kmax) == (b.kmin, b.kmax)
    return same_window and np.array_equal(a.coeffs, b.coeffs) and a.tail == b.tail


def eigenlayer(params, m0):
    return radial_fourier(RadialProfile(params, m0, m0, [1.0]))


def fourier_window_per_profile(x0, profiles, horizon):
    """Reference: the Fourier window as one one-row transform and one pad per
    profile; returns (x0's padded transform or None, the forcing's, lams)."""
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
    lams = np.power(float(params.q), -params.alpha * np.arange(kmin, ext_to + 1, dtype=float))
    return xh, fhs, lams


def solve_master_per_profile(x0, forcing, out_times):
    """Reference: solve_master on the per-profile window."""
    profiles = forcing.profiles if forcing is not None else ()
    xh, fhs, lams = fourier_window_per_profile(x0, profiles, max(out_times, default=0.0))
    ts = np.array(out_times, dtype=float)[:, None]
    coef = xh.coeffs * np.exp(-ts * lams)
    tails = np.full(len(out_times), xh.tail)
    if forcing is not None:
        for fh, a, b in zip(fhs, forcing.breakpoints, forcing.breakpoints[1:]):
            coef = coef + fh.coeffs * _duhamel_factors(lams, ts, a, b)
            tails = tails + fh.tail * np.maximum(0.0, np.minimum(b, ts[:, 0]) - a)
    kmin, kmax, out, otails = radial._fourier_block(x0.params, xh.kmin, xh.kmax, coef, tails)
    return [RadialProfile(x0.params, kmin, kmax, row, tail=t) for row, t in zip(out, otails)]


def max_regularity_per_profile(forcing, p, q_space, n_time):
    """Reference: max_regularity_report on the per-profile window."""
    bps = forcing.breakpoints
    den = sum(
        lp_norm(pr, q_space) ** p * (b - a) for pr, a, b in zip(forcing.profiles, bps, bps[1:])
    )
    grid = np.union1d(np.linspace(0.0, forcing.T, n_time), np.array(bps))
    _, fhs, lams = fourier_window_per_profile(None, forcing.profiles, forcing.T)
    norms = []
    rows = max(1, evolution.BLOCK_ELEMENTS // lams.size)
    for start in range(0, grid.size, rows):
        ts = grid[start : start + rows, None]
        coef = np.zeros((ts.shape[0], lams.size), dtype=complex)
        for fh, a, b in zip(fhs, bps, bps[1:]):
            coef += fh.coeffs * _duhamel_factors(lams, ts, a, b)
        out = radial._fourier_block(forcing.params, fhs[0].kmin, fhs[0].kmax, coef * lams)
        norms += radial._lp_norms(forcing.params, *out, q_space)
    return float(np.trapezoid(np.array(norms) ** p, grid)) ** (1.0 / p) / den ** (1.0 / p)


def _rk4_intervals(forcing, t_end, steps_per_interval, lam_max):
    """(a, b_eff, nsteps, h) per interval RK4 runs, with its stability check."""
    for a, b in zip(forcing.breakpoints, forcing.breakpoints[1:]):
        if a >= t_end:
            break
        b_eff = min(b, t_end)
        nsteps = max(1, int(math.ceil(steps_per_interval * (b_eff - a) / forcing.T)))
        span = lam_max * (b_eff - a)
        if _rk4_gain(span / nsteps) > 1:
            need, hi = nsteps, max(nsteps, math.ceil(span))
            while need < hi:
                mid = (need + hi) // 2
                need, hi = (mid + 1, hi) if _rk4_gain(span / mid) > 1 else (need, mid)
            raise ToleranceError(
                f"RK4 unstable on [{a}, {b_eff}]: lam_max*h = {span / nsteps:.4g} with "
                f"{nsteps} steps, needs {need}"
            )
        yield a, b_eff, nsteps, (b_eff - a) / nsteps


def rk4_per_interval(x0, forcing, t_end, steps_per_interval=4096):
    """Reference: solve_master_rk4 powering each interval's step map in its
    own loop, on the per-profile window."""
    xh, fhs, lams = fourier_window_per_profile(x0, forcing.profiles, t_end)
    y, tail = xh.coeffs.copy(), xh.tail
    for fh, (a, b_eff, nsteps, h) in zip(
        fhs, _rk4_intervals(forcing, t_end, steps_per_interval, float(lams.max()))
    ):
        x = lams * h
        poly = 1.0 + x * (-0.5 + x * (1.0 / 6.0 - x / 24.0))
        d, e = -x * poly, h * poly * fh.coeffs
        while True:
            if nsteps & 1:
                y = y + (d * y + e)
            nsteps >>= 1
            if not nsteps:
                break
            d, e = d * (2.0 + d), e * (2.0 + d)
        tail = tail + fh.tail * (b_eff - a)
    return radial_fourier(RadialProfile(x0.params, xh.kmin, xh.kmax, y, tail=tail))


def rk4_stepping_loop(x0, forcing, t_end, steps_per_interval=4096):
    """Reference: solve_master_rk4 as one RK4 step per loop iteration."""
    xh, fhs, lams = fourier_window_per_profile(x0, forcing.profiles, t_end)
    y = xh.coeffs.copy()
    tail = xh.tail

    for fh, (a, b_eff, nsteps, h) in zip(
        fhs, _rk4_intervals(forcing, t_end, steps_per_interval, float(lams.max()))
    ):
        fc = fh.coeffs

        def rhs(v):
            return -lams * v + fc

        for _ in range(nsteps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        tail = tail + fh.tail * (b_eff - a)

    prof = RadialProfile(x0.params, xh.kmin, xh.kmax, y, tail=tail)
    return radial_fourier(prof)


class TestForcingSignal:
    def test_validation(self):
        prof = RadialProfile.zeros(P21, -2, 2)
        with pytest.raises(ValueError):
            ForcingSignal((0.5, 1.0), (prof,))  # must start at 0
        with pytest.raises(ValueError):
            ForcingSignal((0.0, 1.0, 0.5), (prof, prof))  # not increasing
        with pytest.raises(ValueError):
            ForcingSignal((0.0, 1.0), (prof, prof))  # count mismatch
        with pytest.raises(ValueError):
            ForcingSignal(
                (0.0, 0.5, 1.0), (prof, RadialProfile.zeros(P21, -1, 2))
            )  # window mismatch

    @pytest.mark.parametrize(
        "breakpoints", [(0.0, math.nan, 1.0), (0.0, 0.5, math.inf), (0.0, math.nan)]
    )
    def test_non_finite_breakpoint(self, breakpoints):
        """NaN compares false, so the increasing check alone would pass it."""
        profs = (RadialProfile.zeros(P21, -2, 2),) * (len(breakpoints) - 1)
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            ForcingSignal(breakpoints, profs)


class TestSolveMaster:
    def test_eigenlayer_decay(self):
        m0, t = 1, 0.7
        e = eigenlayer(P21, m0)
        y = solve_master(e, None, [t])[0]
        lam = 2.0 ** (-m0)
        assert lp_norm(y - math.exp(-t * lam) * e, 2) < 1e-14

    def test_constant_forcing_closed_form(self):
        m0, t = 1, 1.3
        e = eigenlayer(P21, m0)
        lam = 2.0 ** (-m0)
        forcing = ForcingSignal.constant(e, 2.0)
        y = solve_master(RadialProfile.zeros(P21, e.kmin, e.kmax), forcing, [t])[0]
        ref = (1.0 - math.exp(-t * lam)) / lam * e
        assert lp_norm(y - ref, 2) < 1e-14

    def test_semigroup_consistency(self, rng):
        x0 = make_profile(rng, P21, -3, 3, tail=0.3)
        y1 = solve_master(x0, None, [0.4])[0]
        y2 = solve_master(y1, None, [0.35])[0]
        y3 = solve_master(x0, None, [0.75])[0]
        assert lp_norm(y2 - y3, 2) <= 1e-12 * max(1.0, lp_norm(y3, 2))
        assert lp_norm(y3 - semigroup_apply(0.75, x0), 2) <= 1e-12

    def test_linearity(self, rng):
        profs = tuple(make_profile(rng, P21, -2, 2) for _ in range(2))
        f1 = ForcingSignal((0.0, 0.5, 1.0), profs)
        f2 = ForcingSignal((0.0, 0.5, 1.0), tuple(2.0 * p for p in profs))
        x0 = make_profile(rng, P21, -2, 2)
        a = solve_master(2.0 * x0, f2, [0.9])[0]
        b = solve_master(x0, f1, [0.9])[0]
        assert lp_norm(a - 2.0 * b, 2) <= 1e-12 * max(1.0, lp_norm(a, 2))

    def test_rk4_oracle_agreement(self, rng):
        profs = tuple(make_profile(rng, P21, -3, 3) for _ in range(3))
        fs = ForcingSignal((0.0, 0.3, 0.7, 1.0), profs)
        x0 = make_profile(rng, P21, -3, 3)
        y = solve_master(x0, fs, [1.0])[0]
        y4 = solve_master_rk4(x0, fs, 1.0, steps_per_interval=8192)
        assert lp_norm(y - y4, 2) <= 1e-8 * lp_norm(y, 2)

    def test_rk4_unstable_step_refused(self):
        """lam_max * h is about 244 here; RK4 is stable only below about 2.8."""
        ones = RadialProfile(FieldParams(5, 2, 2.0), -3, 2, np.ones(6))
        fs = ForcingSignal.constant(ones, 1.0)
        with pytest.raises(ToleranceError, match=r"needs \d+") as err:
            solve_master_rk4(ones, fs, 1.0, steps_per_interval=64)
        need = int(str(err.value).rsplit(" ", 1)[1])
        y = solve_master_rk4(ones, fs, 1.0, steps_per_interval=need)
        assert np.all(np.isfinite(y.coeffs))
        with pytest.raises(ToleranceError):
            solve_master_rk4(ones, fs, 1.0, steps_per_interval=need - 1)

    def test_output_time_validation(self, rng):
        fs = ForcingSignal.constant(make_profile(rng, P21, -2, 2), 1.0)
        x0 = RadialProfile.zeros(P21, -2, 2)
        with pytest.raises(ValueError):
            solve_master(x0, fs, [1.5])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_time_refused(self, rng, t):
        fs = ForcingSignal.constant(make_profile(rng, P21, -2, 2), 1.0)
        x0 = make_profile(rng, P21, -2, 2)
        with pytest.raises(ValueError, match="must be finite"):
            solve_master(x0, fs, [0.5, t])
        with pytest.raises(ValueError, match="must be finite"):
            solve_master(x0, None, [t])


class TestRK4Oracle:
    FIELDS = [(2, 1, 1.0), (3, 2, 0.5), (2, 2, 2.0), (5, 2, 2.0), (2, 1, 0.25)]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_propagator_matches_stepping_loop(self, field, rng):
        params = FieldParams(*field)
        profs = tuple(make_profile(rng, params, -2, 2, tail=0.5) for _ in range(3))
        fs = ForcingSignal((0.0, 0.3, 0.7, 1.0), profs)
        x0 = make_profile(rng, params, -2, 2, tail=-0.25)
        for steps in (1, 7, 64, 1000, 8192, 30000):
            try:
                ref = rk4_stepping_loop(x0, fs, 1.0, steps)
            except ToleranceError as err:
                with pytest.raises(ToleranceError) as got:
                    solve_master_rk4(x0, fs, 1.0, steps)
                assert str(got.value) == str(err)
                continue
            y = solve_master_rk4(x0, fs, 1.0, steps)
            assert lp_norm(y - ref, 2) <= 1e-13 * lp_norm(ref, 2), steps

    @pytest.mark.parametrize("field", [(2, 1, 1.0), (3, 2, 0.5), (2, 2, 2.0)], ids=str)
    def test_fourth_order(self, field, rng):
        """Doubling the steps cuts the error by about 2**4: still RK4, not
        the closed form."""
        params = FieldParams(*field)
        profs = tuple(make_profile(rng, params, -2, 2) for _ in range(2))
        fs = ForcingSignal((0.0, 0.5, 1.0), profs)
        x0 = make_profile(rng, params, -2, 2)
        exact = solve_master(x0, fs, [1.0])[0]
        errs = [lp_norm(solve_master_rk4(x0, fs, 1.0, s) - exact, 2) for s in (64, 128, 256, 512)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 14.0 <= coarse / fine <= 20.0, errs

    def test_input_validation(self, rng):
        fs = ForcingSignal.constant(make_profile(rng, P21, -2, 2), 1.0)
        x0 = make_profile(rng, P21, -2, 2)
        with pytest.raises(ValueError, match=r"lie in \[0, T\]"):
            solve_master_rk4(x0, fs, 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_master_rk4(x0, fs, -0.5)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                solve_master_rk4(x0, fs, t)
        with pytest.raises(ValueError, match="disagree"):
            solve_master_rk4(RadialProfile.zeros(FieldParams(3, 1, 1.0), -2, 2), fs, 1.0)
        for steps in (0, -3):
            with pytest.raises(ValueError, match="steps_per_interval"):
                solve_master_rk4(x0, fs, 1.0, steps)
        y = solve_master_rk4(x0, fs, 1.0 + 1e-13)  # the same slack as solve_master
        assert lp_norm(y - solve_master_rk4(x0, fs, 1.0), 2) <= 1e-12


class TestMildSolution:
    def test_residual_single_mode(self):
        """Central finite differences of y verify y' + D^alpha y = f in the
        interior of a forcing interval."""
        m0 = 1
        e = eigenlayer(P21, m0)
        lam = 2.0 ** (-m0)
        forcing = ForcingSignal.constant(e, 1.0)
        x0 = RadialProfile.zeros(P21, e.kmin, e.kmax)
        h = 5e-4
        worst = 0.0
        for t in (0.25, 0.5, 0.75):
            ym, y0, yp = solve_master(x0, forcing, [t - h, t, t + h])
            # the single mode has coefficient yhat(t); D^alpha y = lam * y here
            dy = (1.0 / (2 * h)) * (yp - ym)
            resid = dy + lam * y0 - e
            worst = max(worst, lp_norm(resid, 2))
        assert worst <= 1e-6


class TestMaxRegularity:
    def test_single_mode_ratio(self):
        e = eigenlayer(P21, 1)
        forcing = ForcingSignal((0.0, 0.5, 1.0), (e, -0.7 * e))
        r = max_regularity_report(forcing, 2.0, 2.0, n_time=4097)
        assert r <= 1.0 + 1e-6

    def test_random_forcing_l2(self, rng):
        for _ in range(3):
            profs = tuple(make_profile(rng, P21, -3, 3) for _ in range(2))
            forcing = ForcingSignal((0.0, 0.6, 1.0), profs)
            r = max_regularity_report(forcing, 2.0, 2.0, n_time=4097)
            assert r <= 1.0 + 1e-6

    def test_p4_finite(self, rng):
        profs = tuple(make_profile(rng, P21, -2, 2) for _ in range(2))
        forcing = ForcingSignal((0.0, 0.4, 1.0), profs)
        r = max_regularity_report(forcing, 4.0, 4.0, n_time=2049)
        assert math.isfinite(r)
        assert r > 0

    def test_zero_forcing_rejected(self):
        forcing = ForcingSignal.constant(RadialProfile.zeros(P21, -2, 2), 1.0)
        with pytest.raises(ValueError):
            max_regularity_report(forcing)

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5, -math.inf])
    def test_bad_p_refused_before_any_work(self, p, monkeypatch):
        # p = inf gave exactly 1.0 and p = 0.5 a quasi-norm ratio
        def no_work(*args):
            raise AssertionError("a norm or transform ran before p was checked")

        monkeypatch.setattr(evolution, "lp_norm", no_work)
        monkeypatch.setattr(radial, "_fourier_block", no_work)
        ones = RadialProfile(P21, -2, 2, np.ones(5))
        forcing = ForcingSignal((0.0, 0.5, 1.0), (ones, 2 * ones))
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            max_regularity_report(forcing, p=p, n_time=257)


class TestWindowExtension:
    @pytest.mark.parametrize(
        "route",
        [
            lambda x0, fs: solve_master(x0, fs, [1.0]),
            lambda x0, fs: solve_master_rk4(x0, fs, 1.0),
            lambda x0, fs: max_regularity_report(fs),
        ],
        ids=["exact", "rk4", "maxreg"],
    )
    def test_extension_cap(self, route):
        # at alpha = 0.002 the constant Fourier tails need about 28,000 crowns
        ball = RadialProfile.ball_indicator(FieldParams(2, 1, 0.002), 0)
        with pytest.raises(WindowOverflowError):
            route(ball, ForcingSignal.constant(ball, 1.0))

    @pytest.mark.parametrize(
        "route",
        [
            lambda x0, fs: solve_master(x0, fs, [1.0]),
            lambda x0, fs: solve_master_rk4(x0, fs, 1.0),
            lambda x0, fs: max_regularity_report(fs),
        ],
        ids=["exact", "rk4", "maxreg"],
    )
    def test_crown_weight_past_float_range_raises_before_any_warning(self, route):
        # the transformed window reaches crown -100001, whose weight q**100001
        # and eigenvalue overflow; the weight check comes before lam is built
        x0 = RadialProfile(P21, -2, 100000, np.eye(1, 100003, 2)[0])  # 1 on crown 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WindowOverflowError, match=r"q\*\*\(100001\)"):
                route(x0, ForcingSignal.constant(x0, 1.0))


    @pytest.mark.parametrize(
        "route",
        [
            lambda x0, fs: solve_master(x0, fs, [1.0]),
            lambda x0, fs: solve_master_rk4(x0, fs, 1.0),
            lambda x0, fs: max_regularity_report(fs),
        ],
        ids=["exact", "rk4", "maxreg"],
    )
    def test_eigenvalue_past_float_range_raises_before_any_warning(self, route):
        # alpha > n: the top eigenvalue q**(2 * 601) overflows while every
        # crown weight, up to q**601, is still a float
        x0 = RadialProfile(FieldParams(2, 1, 2.0), -2, 600, np.eye(1, 603, 2)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WindowOverflowError, match=r"eigenvalue q\*\*\(1202\)"):
                route(x0, ForcingSignal.constant(x0, 1.0))

class TestOneBlockWindow:
    """The block window and the row-wise RK4 powers give today's per-profile
    and per-interval results bit for bit."""

    @pytest.fixture(params=[P21, FieldParams(2, 1, 0.5)], ids=["alpha1", "alpha0.5"])
    def problem(self, rng, request):
        profs = tuple(make_profile(rng, request.param, -2, 2, tail=0.5) for _ in range(3))
        x0 = make_profile(rng, request.param, -2, 2, tail=-0.25)
        return ForcingSignal((0.0, 0.3, 0.7, 1.0), profs), x0

    @pytest.mark.parametrize(
        "times", [[], [0.0], [0.0, 0.3, 0.7, 1.0], [0.3, 1.0]], ids=["none", "zero", "bps", "two"]
    )
    def test_solve_master(self, problem, times):
        forcing, x0 = problem
        got, ref = solve_master(x0, forcing, times), solve_master_per_profile(x0, forcing, times)
        assert len(got) == len(ref) == len(times)
        assert all(same_profile(a, b) for a, b in zip(got, ref))

    def test_solve_master_unforced(self, problem):
        _, x0 = problem
        for times in ([0.6], [0.0, 1.0]):
            got, ref = solve_master(x0, None, times), solve_master_per_profile(x0, None, times)
            assert all(same_profile(a, b) for a, b in zip(got, ref))

    def test_initial_state_on_another_window(self, rng):
        profs = tuple(make_profile(rng, P21, -2, 2, tail=0.5) for _ in range(3))
        forcing = ForcingSignal((0.0, 0.3, 0.7, 1.0), profs)
        wide = make_profile(rng, P21, -4, 3, tail=0.75)  # a transform block of its own
        got = solve_master(wide, forcing, [0.3, 1.0])
        ref = solve_master_per_profile(wide, forcing, [0.3, 1.0])
        assert got[0].kmax == 4  # x0 sets the outer edge, -kmin of its transform
        assert all(same_profile(a, b) for a, b in zip(got, ref))
        for t_end in (0.0, 0.5):
            ref = rk4_per_interval(wide, forcing, t_end, 64)
            assert same_profile(solve_master_rk4(wide, forcing, t_end, 64), ref)

    @pytest.mark.parametrize("t_end", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("steps", [1, 3, 8192])
    def test_rk4(self, problem, t_end, steps):
        """At alpha = 1 one step on [0.3, 0.7] is unstable: the same error."""
        forcing, x0 = problem
        try:
            ref = rk4_per_interval(x0, forcing, t_end, steps)
        except ToleranceError as err:
            with pytest.raises(ToleranceError) as got:
                solve_master_rk4(x0, forcing, t_end, steps)
            assert str(got.value) == str(err)
            return
        assert same_profile(solve_master_rk4(x0, forcing, t_end, steps), ref)

    def test_max_regularity_report(self, problem):
        forcing, _ = problem
        for p, q_space, n_time in ((2.0, 2.0, 4097), (4.0, 3.0, 257)):
            assert max_regularity_report(forcing, p, q_space, n_time) == max_regularity_per_profile(
                forcing, p, q_space, n_time
            )

    def test_one_duhamel_pass_per_block(self, problem, monkeypatch):
        """solve_master takes every interval's factors in one call; the report
        in one call per block of at most BLOCK_ELEMENTS values."""
        forcing, x0 = problem
        sizes, factors = [], evolution._duhamel_factors

        def counted(*args):
            out = factors(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(evolution, "_duhamel_factors", counted)
        solve_master(x0, forcing, [0.0, 0.3, 0.5, 1.0])
        assert len(sizes) == 1
        sizes.clear()
        max_regularity_report(forcing, 2.0, 2.0, 4097)
        assert len(sizes) > 1 and max(sizes) <= evolution.BLOCK_ELEMENTS


def test_rk4_builds_one_profile(monkeypatch):
    rng = np.random.default_rng(26)
    x0 = make_profile(rng, P21, -2, 3, tail=0.5)
    forcing = ForcingSignal.constant(make_profile(rng, P21, -1, 4, tail=0.25j), 1.0)
    built = []
    init = RadialProfile.__post_init__
    monkeypatch.setattr(RadialProfile, "__post_init__", lambda self: built.append(init(self)))
    solve_master_rk4(x0, forcing, 1.0, 64)
    assert len(built) == 1

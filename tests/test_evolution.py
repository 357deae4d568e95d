import math

import pytest

from qharm.calculus import semigroup_apply
from qharm.errors import WindowOverflowError
from qharm.evolution import (
    ForcingSignal,
    max_regularity_report,
    solve_master,
    solve_master_rk4,
)
from qharm.field import FieldParams
from qharm.radial import RadialProfile, lp_norm, radial_fourier

from conftest import make_profile

P21 = FieldParams(2, 1, 1.0)


def eigenlayer(params, m0):
    return radial_fourier(RadialProfile(params, m0, m0, [1.0]), "inverse")


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

    def test_output_time_validation(self, rng):
        fs = ForcingSignal.constant(make_profile(rng, P21, -2, 2), 1.0)
        x0 = RadialProfile.zeros(P21, -2, 2)
        with pytest.raises(ValueError):
            solve_master(x0, fs, [1.5])


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

import cmath
import math

import numpy as np
import pytest

from qharm.calculus import (
    ContourConfig,
    SymbolFunction,
    hinf_apply_contour,
    hinf_apply_direct,
    rademacher_ratio,
    resolvent_apply,
    semigroup_apply,
    square_function,
)
from qharm.errors import QuadratureError, SpectrumError, WindowOverflowError
from qharm.field import FieldParams
from qharm.kernel import default_mass_window, kernel_profile
from qharm.radial import RadialProfile, convolve, lp_norm, radial_fourier

from conftest import make_profile

P21 = FieldParams(2, 1, 1.0)

PHI = SymbolFunction(lambda t: t / (1 + t) ** 2, (1.0, 1.1), 1.4)
ROOT = SymbolFunction(lambda t: cmath.sqrt(t) / (1 + t), (0.5, 1.2), 1.4)
NARROW = SymbolFunction(lambda t: t / (1 + t * t), (1.0, 1.3), 1.0)
# decay exponent 0.03: the cut-off eigenvalue (1e-16 / C)**(1/s) underflows
SLOW = SymbolFunction(lambda t: t**0.03 / (1 + t**0.06), (0.03, 1.1), 1.0)

ROUTES = {
    "direct": hinf_apply_direct,
    "squarefn": lambda sym, g: square_function(g, sym),
    "contour": hinf_apply_contour,
}


class TestSymbolFunction:
    def test_decay_certificate_checked(self):
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: 1.0 + 0 * t, (1.0, 1.0), 1.0)  # no decay
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: t / (1 + t * t), (1.0, 1.0), 1.0)  # C too small

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            SymbolFunction(lambda t: t / (1 + t) ** 2, (1.0, 1.1), 3.5)


class TestResolvent:
    def test_eigenlayer_scaling(self):
        m0 = 1
        e = radial_fourier(RadialProfile(P21, m0, m0, [1.0]), "inverse")
        z = -2.0 + 0.5j
        lam = 2.0 ** (-m0)
        out = resolvent_apply(z, e)
        assert lp_norm(out - (1.0 / (z - lam)) * e, 2) < 1e-13

    def test_resolvent_identity(self, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.2)
        z, w = -1.5 + 0.4j, 2.7 + 3.0j
        lhs = resolvent_apply(z, g) - resolvent_apply(w, g)
        rhs = (w - z) * resolvent_apply(z, resolvent_apply(w, g))
        assert lp_norm(lhs - rhs, 2) <= 1e-11 * max(1.0, lp_norm(lhs, 2))

    def test_sectorial_bound_negative_axis(self, rng):
        g = make_profile(rng, P21, -4, 4)
        for z in (-1e-3, -1.0, -1e3):
            assert lp_norm(z * resolvent_apply(z, g), 2) <= lp_norm(g, 2) * (1 + 1e-12)

    def test_spectrum_standoff(self, rng):
        g = make_profile(rng, P21, -2, 2)
        with pytest.raises(SpectrumError):
            resolvent_apply(2.0, g)  # an eigenvalue
        with pytest.raises(SpectrumError):
            resolvent_apply(0.0, g)
        with pytest.raises(SpectrumError):
            resolvent_apply(2.0 * (1 + 1e-9), g)


class TestDirectCalculus:
    def test_identity_symbol(self, rng):
        g = make_profile(rng, P21, -3, 3)  # zero tail: no zero-frequency mass
        out = hinf_apply_direct(lambda lam: 1.0, g, value_at_zero=1.0)
        assert lp_norm(out - g, 2) < 1e-12

    def test_exponential_symbol_is_semigroup(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.5)
        t = 0.7
        a = hinf_apply_direct(
            lambda lam: cmath.exp(-t * lam), g, value_at_zero=1.0
        )
        b = semigroup_apply(t, g)
        assert lp_norm(a - b, 2) < 1e-13

    def test_diagonal_contraction(self, rng):
        g = make_profile(rng, P21, -4, 4)
        out = hinf_apply_direct(PHI, g)
        sup = 0.25  # max of t/(1+t)^2 on (0, inf)
        assert lp_norm(out, 2) <= sup * lp_norm(g, 2) * (1 + 1e-12)

    def test_multiplicativity(self, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.3)
        prod = SymbolFunction(
            lambda t: PHI.fn(t) * ROOT.fn(t), (1.5, 1.4), 1.4
        )
        a = hinf_apply_direct(prod, g)
        b = hinf_apply_direct(PHI, hinf_apply_direct(ROOT, g))
        assert lp_norm(a - b, 2) <= 1e-12 * max(1.0, lp_norm(a, 2))


class TestContourCalculus:
    @pytest.mark.parametrize("sym", [PHI, ROOT, NARROW], ids=["phi", "root", "narrow"])
    def test_matches_direct(self, sym, rng):
        g = make_profile(rng, P21, -3, 4, tail=0.25)
        direct = hinf_apply_direct(sym, g)
        res = hinf_apply_contour(sym, g)
        rel = lp_norm(res.profile - direct, 2) / lp_norm(direct, 2)
        assert rel <= 1e-6
        assert res.error_estimate <= 1e-6

    def test_nu_independence(self, rng):
        g = make_profile(rng, P21, -3, 4)
        outs = [
            hinf_apply_contour(
                PHI, g, ContourConfig.auto(2.0**-5, 2.0**4, PHI, nu=nu)
            ).profile
            for nu in (0.3, 0.6, 1.0)
        ]
        base = lp_norm(outs[0], 2)
        assert lp_norm(outs[0] - outs[1], 2) <= 1e-6 * base
        assert lp_norm(outs[0] - outs[2], 2) <= 1e-6 * base

    def test_linearity_in_symbol(self, rng):
        g = make_profile(rng, P21, -2, 3)
        scaled = SymbolFunction(lambda t: 3.5 * PHI.fn(t), (1.0, 4.0), 1.4)
        a = hinf_apply_contour(scaled, g).profile
        b = 3.5 * hinf_apply_contour(PHI, g).profile
        assert lp_norm(a - b, 2) <= 1e-9 * lp_norm(b, 2)

    def test_angle_outside_sector_rejected(self, rng):
        g = make_profile(rng, P21, -2, 2)
        with pytest.raises(ValueError):
            hinf_apply_contour(NARROW, g, ContourConfig(nu=1.2))

    def test_nonconvergence_detected(self, rng):
        g = make_profile(rng, P21, -2, 2)
        bad = ContourConfig(nu=0.5, nodes_per_decade=2, radius_range=(1e-3, 1e3))
        with pytest.raises(QuadratureError):
            hinf_apply_contour(PHI, g, bad, tol=1e-10)


class TestSemigroup:
    def test_strong_continuity_at_zero(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.4)
        for t in (1e-3, 1e-6):
            diff = lp_norm(semigroup_apply(t, g) - g, 2)
            assert diff <= 10 * t * lp_norm(g, 2)

    def test_matches_kernel_convolution(self, rng):
        g = make_profile(rng, P21, -3, 3)
        t = 0.8
        win = default_mass_window(t + 0j, P21, tol=1e-11)
        K = kernel_profile(t + 0j, win, P21)
        assert lp_norm(semigroup_apply(t, g) - convolve(K, g), 2) <= 1e-8

    def test_composition(self, rng):
        g = make_profile(rng, P21, -3, 3, tail=0.1)
        a = semigroup_apply(0.3 + 0.2j, semigroup_apply(0.5 - 0.1j, g))
        b = semigroup_apply(0.8 + 0.1j, g)
        assert lp_norm(a - b, 2) <= 1e-12 * max(1.0, lp_norm(b, 2))

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_lp_contraction_real_time(self, p, rng):
        for _ in range(5):
            g = make_profile(rng, P21, -3, 3)
            out = semigroup_apply(1.3, g)
            assert lp_norm(out, p) <= lp_norm(g, p) * (1 + 1e-10)


class TestSquareFunction:
    def test_zero_input(self):
        assert square_function(RadialProfile.zeros(P21, -2, 2), PHI, p=2.0) == 0.0

    def test_l2_constant(self, rng):
        target = math.sqrt(1.0 / 6.0)
        for _ in range(5):
            g = make_profile(rng, P21, -4, 3, tail=0.3)
            ratio = square_function(g, PHI, p=2.0) / lp_norm(g, 2)
            assert abs(ratio - target) <= 1e-5

    def test_explicit_grid_and_coverage_warning(self, rng):
        g = make_profile(rng, P21, -2, 2)
        with pytest.warns(UserWarning):
            square_function(g, PHI, grid=np.logspace(-1, 1, 10), p=2.0)


class TestWindowExtension:
    """Every route extends the Fourier window by one rule and refuses the
    extensions it cannot make with a typed error."""

    @pytest.mark.parametrize("route", ["direct", "squarefn", "contour"])
    def test_underflowing_cutoff_refused(self, route):
        g = RadialProfile.ball_indicator(P21, 0)
        with pytest.raises(WindowOverflowError):
            ROUTES[route](SLOW, g)

    @pytest.mark.parametrize("route", ["direct", "contour"])
    def test_extension_cap(self, route):
        g = RadialProfile.ball_indicator(FieldParams(2, 1, 0.002), 0)
        with pytest.raises(WindowOverflowError):  # about 26,600 crowns needed
            ROUTES[route](PHI, g)

    def test_negligible_tail_needs_no_extension(self):
        # (1e-16 / lip)**(1/s) overflows: every eigenvalue is below the cut-off
        g = 1e-30 * RadialProfile.ball_indicator(P21, 0)
        out = hinf_apply_direct(SLOW, g)
        assert (out.kmin, out.kmax) == (-1, 1)
        assert np.all(np.isfinite(out.coeffs))


class TestRademacher:
    def test_single_contraction(self):
        assert rademacher_ratio([1.0 + 0j], 4.0, 60, 7, P21) <= 1.0 + 1e-8

    def test_seed_replay_identical(self):
        fam = [cmath.exp(1j * 0.9) * m for m in (0.1, 1.0, 10.0)]
        a = rademacher_ratio(fam, 4.0, 40, 321, P21)
        b = rademacher_ratio(fam, 4.0, 40, 321, P21)
        assert a == b

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            rademacher_ratio([-1.0 + 0j], 2.0, 10, 0, P21)

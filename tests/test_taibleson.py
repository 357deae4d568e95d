import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharm.errors import WindowOverflowError
from qharm.field import FieldParams, QuotientLattice
from qharm.gamma import gamma_qn
from qharm.radial import RadialProfile, lp_norm, radial_fourier
from qharm.taibleson import (
    hypersingular_constant,
    levy_khinchin_check,
    taibleson_fourier,
    taibleson_hypersingular,
    taibleson_hypersingular_lattice,
)
from qharm.vilenkin import lift_profile

from conftest import LATTICE_SPECS, make_profile, quotient_params, spec_lattice

P21 = FieldParams(2, 1, 1.0)
# the benchmark's wide-window fields, and one with n = 2
WIDE_FIELDS = [(2, 1, 0.25), (2, 1, 0.5), (3, 1, 0.25), (3, 1, 0.5), (3, 2, 0.5)]


def hypersingular_crown_loop(f, k_x):
    """Reference: taibleson_hypersingular as one Python step per crown."""
    q, n, alpha = f.params.q, f.params.n, f.params.alpha
    w = 1.0 - float(q) ** (-n)
    C = hypersingular_constant(f.params)
    if k_x is None:
        fx = f.tail
        total = 0.0 + 0.0j
        for j in range(f.kmin, f.kmax + 1):
            total += (f.value_at(j) - fx) * float(q) ** (j * alpha) * w
        total -= fx * w * float(q) ** ((f.kmin - 1) * alpha) / (1.0 - float(q) ** (-alpha))
        return C * total
    fx = f.value_at(k_x)
    total = 0.0 + 0.0j
    for j in range(f.kmin, min(k_x, f.kmax + 1)):
        total += (f.value_at(j) - fx) * float(q) ** (j * alpha) * w
    total -= fx * w * float(q) ** ((f.kmin - 1) * alpha) / (1.0 - float(q) ** (-alpha))
    suffix = f.tail * float(q) ** (-max(k_x + 1, f.kmax + 1) * n)
    for m in range(max(k_x + 1, f.kmin), f.kmax + 1):
        suffix += f.value_at(m) * (1.0 - float(q) ** (-n)) * float(q) ** (-m * n)
    total += float(q) ** (k_x * (alpha + n)) * (suffix - fx * float(q) ** (-(k_x + 1) * n))
    return C * total


class TestFourierRoute:
    def test_zero(self):
        out = taibleson_fourier(RadialProfile.zeros(P21, -2, 2))
        assert lp_norm(out, math.inf) == 0.0

    def test_worked_value(self):
        """D^1 applied to the unit-ball indicator evaluates to 2/3 at 0."""
        D = taibleson_fourier(RadialProfile.ball_indicator(P21, 0))
        assert abs(D.tail - 2.0 / 3.0) < 1e-13

    def test_eigenlayer_diagonal(self, rng):
        """Fourier mass on one crown scales by the single multiplier value."""
        params = FieldParams(3, 2, 0.5)
        m0 = -2
        e = radial_fourier(RadialProfile(params, m0, m0, [1.0]))
        D = taibleson_fourier(e)
        lam = 3.0 ** (-m0 * 0.5)
        assert lp_norm(D - lam * e, 2) < 1e-12 * lam

    def test_window_past_float_range_refused(self):
        # at alpha = 0.05 the tail extension reaches Fourier crown 1064, so D
        # would reach crown -1065, whose measure 2**1065 is no float
        ball = RadialProfile.ball_indicator(FieldParams(2, 1, 0.05), 0)
        with pytest.raises(WindowOverflowError, match=r"^crown weight q\*\*\(1065\) at q=2"):
            taibleson_fourier(ball)


class TestOracleEquivalence:
    @pytest.mark.parametrize("q,n,alpha", [(2, 1, 1.0), (3, 2, 0.5), (5, 1, 2.0)])
    def test_sphere_indicators(self, q, n, alpha):
        params = FieldParams(q, n, alpha)
        for k0 in range(-3, 4):
            f = RadialProfile.sphere_indicator(params, k0)
            D = taibleson_fourier(f)
            for k_x in list(range(-5, 6)) + [None]:
                hs = taibleson_hypersingular(f, k_x)
                fo = D.tail if k_x is None else D.value_at(k_x)
                assert abs(hs - fo) <= 1e-10 * max(1.0, abs(fo))

    def test_random_window(self, rng):
        f = make_profile(rng, P21, -4, 4, tail=0.5)
        D = taibleson_fourier(f)
        for k_x in list(range(-6, 7)) + [None]:
            hs = taibleson_hypersingular(f, k_x)
            fo = D.tail if k_x is None else D.value_at(k_x)
            assert abs(hs - fo) <= 1e-10 * max(1.0, abs(fo))

    def test_worked_value_hypersingular(self):
        f = RadialProfile.ball_indicator(P21, 0)
        assert abs(taibleson_hypersingular(f, None) - 2.0 / 3.0) < 1e-13


class TestHypersingularRoute:
    @pytest.mark.parametrize("field", WIDE_FIELDS, ids=str)
    @pytest.mark.parametrize("length", [190, 550, 910])
    def test_matches_crown_loop(self, rng, field, length):
        """The array route against the per-crown loop on wide windows whose
        crown weights stay finite (q**(n |k|) <= 1e140, as in the benchmark)."""
        params = FieldParams(*field)
        kabs = math.floor(140.0 / (params.n * math.log10(params.q)))
        length = min(length, 2 * kabs - 40)
        kmin = -(length // 2) + int(rng.integers(-10, 11))
        tail = complex(*rng.standard_normal(2))
        f = make_profile(rng, params, kmin, kmin + length - 1, tail=tail)
        points = [int(k) for k in rng.choice(np.arange(kmin - 2, f.kmax + 3), 24, replace=False)]
        for k_x in [kmin - 1, kmin, f.kmax, f.kmax + 1, *points, None]:
            ref = hypersingular_crown_loop(f, k_x)
            got = taibleson_hypersingular(f, k_x)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), k_x

    @pytest.mark.parametrize(
        "q,n,alpha,k", [(3, 1, 0.5, -300), (2, 1, 0.25, -400), (2, 2, 1.0, -150)]
    )
    def test_far_field_ball(self, q, n, alpha, k):
        """Deep inside a large ball only the outer tail beyond it is felt:
        D 1_{G_k}(x) = -C (1 - q**-n) q**((k-1) alpha) / (1 - q**-alpha)."""
        params = FieldParams(q, n, alpha)
        want = (
            -hypersingular_constant(params) * (1.0 - float(q) ** -n)
            * float(q) ** ((k - 1) * alpha) / (1.0 - float(q) ** -alpha)
        )
        got = taibleson_hypersingular(RadialProfile.ball_indicator(params, k), -k)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("k_x", [-301, -300, 0, 100, 299, 300, 301])
    def test_wide_ball_every_crown(self, k_x):
        """An all-ones profile with tail 1 on [-300, 300] is 1_{G_-300}.  Outside
        it only the equal crown is felt, D f(x) = C q**(300 n) ||x||**(-alpha-n),
        about 1e-73 at k_x = -301 where the crown weight alone underflows;
        inside, the equal crown cancels exactly and the far-field ball value is
        left.  Both against 50-digit mpmath."""
        params = FieldParams(3, 2, 0.5)
        f = RadialProfile(params, -300, 300, np.ones(601), tail=1.0)
        with mpmath.workdps(50):
            q, a, n = mpmath.mpf(3), mpmath.mpf("0.5"), 2
            C = (1 - q**a) / (1 - q ** (-a - n))
            if k_x < -300:
                want = C * q ** (300 * n) * q ** (k_x * (a + n))
            else:
                want = -C * (1 - q**-n) * q ** (-301 * a) / (1 - q**-a)
            want = complex(want)
        got = taibleson_hypersingular(f, k_x)
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize(
        "params,f,k_x,power",
        [
            # q**(k_x (alpha + n)) = 5**515 on the equal crown, 5**497 first
            (FieldParams(5, 3, 100.0), "sphere", 5, 497),
            # window weights q**(j alpha) up to 2**1100
            (P21, "ones_out", None, 1100),
            # inner crown measures q**(-m n) up to 2**1100
            (P21, "ones_in", -1101, 1100),
            # suffix weights q**(k_x (alpha + n) - m n) up to 3**647, past the window's 3**646
            (FieldParams(3, 1, 2.0), "ones_330", 324, 647),
        ],
        ids=["equal_crown", "window", "suffix", "suffix_weight"],
    )
    def test_weight_past_float_range(self, params, f, k_x, power):
        prof = {
            "sphere": lambda: RadialProfile.sphere_indicator(params, 0),
            "ones_out": lambda: RadialProfile(params, 0, 1100, np.ones(1101)),
            "ones_in": lambda: RadialProfile(params, -1100, 0, np.ones(1101)),
            "ones_330": lambda: RadialProfile(params, 0, 330, np.ones(331)),
        }[f]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            msg = rf"^crown weight q\*\*\({power}\) at q={params.q} leaves the float range$"
            with pytest.raises(WindowOverflowError, match=msg):
                taibleson_hypersingular(prof, k_x)


class TestLatticeRoute:
    def test_annihilates_constants(self):
        lat = QuotientLattice(quotient_params(2, 1), 3, 3)
        const = np.full(lat.size, 1.7 - 0.4j)
        for x in (0, 5, 17):
            assert taibleson_hypersingular_lattice(const, x, lat) == 0.0

    def test_matches_radial_route_inside_window(self):
        """On a lifted profile whose support clears the lattice boundary, the
        quotient-model operator agrees with the closed-form radial one at
        points where f vanishes (no outer-tail correction)."""
        params = quotient_params(2, 1)
        lat = QuotientLattice(params, 4, 4)
        prof = RadialProfile.sphere_indicator(params, 1)
        lifted = lift_profile(prof, lat)
        norms = lat.norms()
        D_radial = taibleson_fourier(prof)
        # pick x on a crown where f(x) = 0: outer truncation exact
        for k_x in (-1, 0, 2, 3):
            idxs = np.nonzero(norms == 2.0 ** (-k_x))[0]
            got = taibleson_hypersingular_lattice(lifted.values, int(idxs[0]), lat)
            want = D_radial.value_at(k_x)
            assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_against_scalar_shift_loop(self, rng, spec):
        lat = spec_lattice(spec, alpha=0.7)
        params = lat.params
        vals = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        norms = lat.norms()
        for x in rng.integers(0, lat.size, 2):
            shifted = np.array([vals[lat.add(int(x), u)] for u in range(lat.size)])
            total = 0.0 + 0.0j
            for u in np.nonzero(norms > 0)[0]:
                total += (shifted[u] - vals[x]) * norms[u] ** (-(params.alpha + params.n))
            want = hypersingular_constant(params) * total * float(lat.coset_measure)
            got = taibleson_hypersingular_lattice(vals, int(x), lat)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_roll_equals_index_gather(self, rng, spec):
        """The mod-Q roll gives the broadcast ``lattice.add`` gather's result
        bit for bit."""
        lat = spec_lattice(spec, alpha=0.7)
        params = lat.params
        vals = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        norms = lat.norms()
        mask = norms > 0
        weights = norms[mask] ** (-(params.alpha + params.n))
        for x in {0, lat.size - 1, *(int(i) for i in rng.integers(0, lat.size, 3))}:
            shifted = vals[lat.add(x, np.arange(lat.size))]
            total = np.sum((shifted[mask] - vals[x]) * weights) * float(lat.coset_measure)
            want = hypersingular_constant(params) * complex(total)
            assert taibleson_hypersingular_lattice(vals, x, lat) == want

    def test_radial_input_radial_output(self):
        params = quotient_params(3, 1)
        lat = QuotientLattice(params, 2, 2)
        prof = RadialProfile.sphere_indicator(params, 0)
        lifted = lift_profile(prof, lat)
        norms = lat.norms()
        for v in np.unique(norms):
            idxs = np.nonzero(norms == v)[0]
            outs = [
                taibleson_hypersingular_lattice(lifted.values, int(i), lat)
                for i in idxs[:4]
            ]
            assert max(abs(o - outs[0]) for o in outs) < 1e-12


class TestLevyKhinchin:
    def test_worked_case_exact(self):
        lhs, rhs = levy_khinchin_check(0, P21)
        assert lhs == 1.0
        assert rhs == 1.0

    def test_zero_point(self):
        assert levy_khinchin_check(None, P21) == (0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]),
        st.sampled_from([1, 2]),
        st.sampled_from([0.5, 1.0, 2.0, 3.7]),
        st.integers(-3, 3),
    )
    def test_closed_form_grid(self, q, n, alpha, n0):
        params = FieldParams(q, n, alpha)
        lhs, rhs = levy_khinchin_check(-n0, params)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_truncated_mode(self):
        params = FieldParams(3, 2, 0.5)
        lhs, rhs = levy_khinchin_check(-3, params, mode="truncated", budget=40)
        assert abs(lhs - rhs) <= 1e-6
        lhs2, rhs2 = levy_khinchin_check(-3, params, mode="closed_form")
        assert abs(lhs2 - rhs2) <= 1e-12 * abs(lhs2)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            levy_khinchin_check(0, P21, mode="bogus")


class TestConstants:
    @pytest.mark.parametrize("q,n,alpha", [(2, 1, 1.0), (3, 2, 0.5), (5, 2, 3.7)])
    def test_hypersingular_constant_is_reciprocal_gamma(self, q, n, alpha):
        params = FieldParams(q, n, alpha)
        assert abs(
            hypersingular_constant(params) - 1.0 / gamma_qn(-alpha, params).real
        ) < 1e-12 * abs(hypersingular_constant(params))


class TestConditionalNegativeDefiniteness:
    def test_zero_sum_weights(self, rng):
        """sum c_i conj(c_j) ||x_i - x_j||**alpha has nonpositive real part
        for weights summing to zero."""
        lat = QuotientLattice(quotient_params(2, 1), 3, 3)
        for alpha in (0.5, 1.0, 3.7):
            for _ in range(25):
                m = 6
                pts = rng.integers(0, lat.size, size=m)
                c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                c[-1] = -np.sum(c[:-1])
                total = 0.0
                for i in range(m):
                    for j in range(m):
                        d = lat.sub(int(pts[i]), int(pts[j]))
                        total += (c[i] * np.conj(c[j])).real * float(
                            lat.norm(d)
                        ) ** alpha
                assert total <= 1e-10

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from qharm import radial
from qharm.errors import WindowOverflowError
from qharm.field import FieldParams, ball_measure
from qharm.radial import (
    RadialProfile,
    convolve,
    convolve_direct,
    improper_integral,
    lp_norm,
    majorant,
    radial_fourier,
)

from conftest import make_profile, profile_st

P21 = FieldParams(2, 1, 1.0)
P31 = FieldParams(3, 1, 1.0)


class TestImproperIntegral:
    def test_unit_ball_indicator(self):
        assert improper_integral(RadialProfile.ball_indicator(P21, 0)) == 1.0

    def test_single_crown(self):
        f = RadialProfile.sphere_indicator(P31, 0)
        assert abs(improper_integral(f) - 2.0 / 3.0) < 1e-15

    def test_crown_symmetry(self):
        vals = np.array([1.0, 2.0, 3.0])
        f = RadialProfile(P21, 0, 2, vals)
        # reversing the coefficients reweights by the measures, so compare
        # against the explicitly recomputed sum
        ref = sum(v * 0.5 * 2.0**-k for k, v in zip(range(0, 3), vals))
        assert abs(improper_integral(f) - ref) < 1e-15


class TestLpNorm:
    def test_zero(self):
        assert lp_norm(RadialProfile.zeros(P21, -2, 2), 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_unit_ball_any_p(self, p):
        assert abs(lp_norm(RadialProfile.ball_indicator(P21, 0), p) - 1.0) < 1e-15

    def test_single_crown_l2(self):
        f = RadialProfile(P21, 0, 0, [2.0])
        assert abs(lp_norm(f, 2.0) - 2.0 * math.sqrt(0.5)) < 1e-15

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(RadialProfile.ball_indicator(P21, 0), 0.5)

    @pytest.mark.parametrize("p", [math.nan, -math.inf])
    def test_nan_and_minus_inf_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(RadialProfile.ball_indicator(P21, 0), p)


# the reproducers of the rows past the floats: p-th powers above them, below
# them, and an inner tail whose p-th power leaves them
SCALED_ROWS = [
    (RadialProfile(P21, 0, 6, np.full(7, 1e10)), 40.0),
    (RadialProfile(P21, 0, 6, np.full(7, 1e-10)), 40.0),
    (RadialProfile(P21, 0, 6, np.ones(7), tail=1e200), 2.0),
]


def _mp_lp_norm(f: RadialProfile, p: float):
    """The L^p norm of f in 50-digit arithmetic."""
    q, n = f.params.q, f.params.n
    with mpmath.workdps(50):
        total = abs(mpmath.mpc(f.tail)) ** p * mpmath.mpf(q) ** (-(f.kmax + 1) * n)
        for k, c in zip(range(f.kmin, f.kmax + 1), f.coeffs):
            total += abs(mpmath.mpc(c)) ** p * (1 - mpmath.mpf(q) ** -n) * mpmath.mpf(q) ** (-k * n)
        return total ** (1 / mpmath.mpf(p))


def _rows_past_the_floats():
    """The reproducers, then rows on four fields, p in {1, 2, 40, 300},
    windows in [-300, 300] and |c| from 1e-200 to 1e200, with and without
    tails; most p-th power sums of them leave the floats."""
    yield from SCALED_ROWS
    rng = np.random.default_rng(2028)
    fields = [P21, FieldParams(3, 2, 0.5), FieldParams(2, 2, 2.0), FieldParams(5, 1, 0.5)]
    for i in range(320):
        width = int(rng.integers(0, 30))
        kmin = int(rng.integers(-300, 301 - width))
        base = rng.uniform(-200, 200)
        mags = 10.0 ** np.clip(base + rng.normal(0, 4, width + 1), -200, 200)
        coeffs = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, width + 1))
        tail = 10.0 ** np.clip(base + rng.normal(0, 4), -200, 200) if i % 2 else 0.0
        p = (1.0, 2.0, 40.0, 300.0)[i // 4 % 4]
        yield RadialProfile(fields[i % 4], kmin, kmin + width, coeffs, tail), p


class TestLpNormPastTheFloats:
    def test_reproducers(self):
        assert [lp_norm(f, p) for f, p in SCALED_ROWS] == [
            9998039397.857906, 9.998039397857907e-11, 8.838834764831844e+198
        ]

    def test_rescaled_norms_match_mpmath(self, monkeypatch):
        """Every row summed again, scaled, gives a norm within
        4 + |ln(norm / top)| ulps of a 50-digit one, top the row's largest |c|:
        the log term is the rounding of 1/p, which moves x**(1/p) by up to
        |ln x**(1/p)| / 2 units of 2**-52, relative.  A norm past the floats
        raises WindowOverflowError."""
        scaled = []
        inner = radial._lp_norm_scaled
        monkeypatch.setattr(radial, "_lp_norm_scaled", lambda *a: scaled.append(a) or inner(*a))
        checked = refused = 0
        for f, p in _rows_past_the_floats():
            want = _mp_lp_norm(f, p)
            count = len(scaled)
            if want > mpmath.mpf(sys.float_info.max):
                with pytest.raises(WindowOverflowError, match=r"^L\^\S+ norm on crowns from"):
                    lp_norm(f, p)
                refused += 1
                continue
            got = lp_norm(f, p)
            if len(scaled) == count or want < sys.float_info.min:
                continue  # an in-range row, or a norm below the normal floats
            top = max(float(np.abs(f.coeffs).max()), abs(f.tail))
            slack = 4 + abs(float(mpmath.log(want / top)))
            assert abs(mpmath.mpf(got) - want) <= slack * math.ulp(float(want)), (f, p, got)
            checked += 1
        assert checked >= 150 and refused >= 3, (checked, refused)


class TestFourier:
    def test_unit_ball_self_dual(self):
        fh = radial_fourier(RadialProfile.ball_indicator(P21, 0))
        for k in range(-5, 6):
            expect = 1.0 if k >= 0 else 0.0
            assert abs(fh.value_at(k) - expect) < 1e-15

    def test_delta_profile_matches_sphere_integral(self):
        """A normalized single-crown spike transforms into the closed-form
        sphere-character values, crown by crown."""
        from qharm.field import sphere_character_integral, sphere_measure, qpow

        k0 = 1
        f = RadialProfile(P31, k0, k0, [1.0 / float(sphere_measure(k0, P31))])
        fh = radial_fourier(f)
        for m in range(-4, 5):
            expect = float(
                sphere_character_integral(k0, qpow(3, -m), P31)
            ) / float(sphere_measure(k0, P31))
            assert abs(fh.value_at(m) - expect) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(profile_st(max_window=60))
    def test_involution(self, f):
        g = radial_fourier(radial_fourier(f))
        scale = max(lp_norm(f, math.inf), 1.0)
        for k in range(f.kmin - 2, f.kmax + 3):
            assert abs(g.value_at(k) - f.value_at(k)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(profile_st(max_window=60))
    def test_plancherel(self, f):
        a, b = lp_norm(f, 2.0), lp_norm(radial_fourier(f), 2.0)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(profile_st(max_window=40))
    def test_deep_crown_value_is_integral(self, f):
        fh = radial_fourier(f)
        assert abs(fh.tail - improper_integral(f)) <= 1e-12 * max(
            1.0, abs(improper_integral(f))
        )
        assert fh.value_at(fh.kmax + 50) == fh.tail


class TestFloatRange:
    """A window whose outermost crown weight q**(-n*kmin) leaves the float
    range is refused with a typed error instead of turning into inf and NaN;
    weights that underflow on inner crowns are harmless."""

    def test_wide_window_refused(self):
        f = RadialProfile.zeros(P21, -1050, 1049)  # 2,100 crowns at q=2, n=1
        with pytest.raises(WindowOverflowError):
            radial_fourier(f)

    def test_inner_crowns_underflow_harmlessly(self):
        fh = radial_fourier(RadialProfile.sphere_indicator(P21, 1100))
        assert (fh.kmin, fh.kmax) == (-1101, -1100)
        assert np.all(np.isfinite(fh.coeffs)) and fh.tail == 0.0

    @pytest.mark.parametrize("route", [lp_norm, improper_integral, radial_fourier])
    def test_huge_ball_measure_refused(self, route):
        # mu(G_-1099) = 2**1099 is no float
        f = RadialProfile.ball_indicator(P21, -1100)
        with pytest.raises(WindowOverflowError):
            route(f, 2.0) if route is lp_norm else route(f)

    def test_edge_of_range_still_transforms(self):
        f = RadialProfile.ball_indicator(P21, -1022)
        back = radial_fourier(radial_fourier(f))
        assert abs(back.value_at(-1022) - 1.0) < 1e-12


class TestExtend:
    """radial._extend, the one pad and eigenvalue step of every multiplier
    route, against RadialProfile.padded and lam = q**(-m*alpha) bit for bit."""

    @pytest.mark.parametrize("params", [P21, FieldParams(3, 2, 0.5)], ids=["q2n1", "q3n2"])
    @pytest.mark.parametrize("pad", [(0, 0), (0, 7), (3, 0), (2, 40)], ids=str)
    def test_rows_match_padded(self, rng, params, pad):
        kmin, kmax = -3, 4
        OUT = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        tails = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lo, hi = kmin - pad[0], kmax + pad[1]
        H, lams = radial._extend(params, kmin, kmax, OUT, tails, lo, hi)
        assert H.shape == (5, hi - lo + 1)
        for row, c, t in zip(H, OUT, tails):
            ref = RadialProfile(params, kmin, kmax, c, tail=t).padded(lo, hi).coeffs
            assert np.array_equal(row, ref)
        ms = np.arange(lo, hi + 1, dtype=float)
        assert np.array_equal(lams, np.power(float(params.q), -params.alpha * ms))

    @pytest.mark.parametrize(
        "alpha, lo, message",
        [(2.0, -601, r"eigenvalue q\*\*\(1202\)"), (2.0, -1100, r"crown weight q\*\*\(1100\)"),
         (0.5, -1100, r"crown weight q\*\*\(1100\)")],
        ids=["eigenvalue", "both", "weight"],
    )
    def test_window_past_float_range_refused(self, alpha, lo, message):
        # the crown weight is checked first, then the top eigenvalue
        with pytest.raises(WindowOverflowError, match=f"^{message} at q=2 leaves the float range"):
            radial._extend(FieldParams(2, 1, alpha), 0, 0, np.ones((1, 1)), np.ones(1), lo, 0)


class TestWindowMemo:
    """Each crown window's constant tables are memoised, read-only and equal
    to the direct formulas bit for bit."""

    MEMOS = (radial._sphere_measures, radial._ball_measure, radial._out_weights)

    @pytest.mark.parametrize("field", [(2, 1), (3, 2), (5, 3)], ids=str)
    @pytest.mark.parametrize("window", [(4, 4), (-3, 4), (-50, 849)], ids=["1", "8", "900"])
    def test_tables_equal_direct_formulas(self, field, window):
        (q, n), (kmin, kmax) = field, window
        ks = np.arange(kmin, kmax + 1, dtype=float)
        js = np.arange(-kmax - 1, -kmin + 1, dtype=float)
        sphere = (1.0 - float(q) ** (-n)) * np.power(float(q), -ks * n)
        assert np.array_equal(radial._sphere_measures(q, n, kmin, kmax), sphere)
        ball = float(ball_measure(kmax + 1, FieldParams(q, n, 1.0)))
        assert radial._ball_measure(q, n, kmax + 1) == ball
        assert np.array_equal(radial._out_weights(q, n, kmin, kmax), np.power(float(q), n * js))

    def test_read_only_and_shared(self):
        for table in (radial._sphere_measures(2, 1, -3, 4), radial._out_weights(2, 1, -3, 4)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        assert radial._sphere_measures(2, 1, -3, 4) is radial._sphere_measures(2, 1, -3, 4)
        assert radial._out_weights(2, 1, -3, 4) is radial._out_weights(2, 1, -3, 4)

    def test_overflow_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(WindowOverflowError):
                radial._sphere_measures(2, 1, -1100, -1100)
            with pytest.raises(WindowOverflowError):
                radial_fourier(RadialProfile.ball_indicator(P21, -1100))

    def test_caches_stay_bounded(self):
        for k in range(3 * radial._WINDOW_CACHE):
            f = RadialProfile.sphere_indicator(P31, k)
            radial_fourier(f)
            lp_norm(f, 2.0)
            for memo in self.MEMOS:
                assert memo.cache_info().currsize <= radial._WINDOW_CACHE
        assert all(memo.cache_info().maxsize == radial._WINDOW_CACHE for memo in self.MEMOS)


class TestConvolve:
    @settings(max_examples=40, deadline=None)
    @given(profile_st(max_window=12, with_tail=False))
    def test_fourier_route_matches_direct(self, f):
        rng = np.random.default_rng(abs(hash((f.kmin, f.kmax))) % 2**32)
        g = make_profile(rng, f.params, f.kmin - 1, f.kmin - 1 + min(11, f.kmax - f.kmin))
        c1 = convolve(g, f)
        c2 = convolve_direct(g, f)
        scale = max(1.0, lp_norm(c1, math.inf), lp_norm(c2, math.inf))
        for k in range(c2.kmin - 2, c2.kmax + 3):
            assert abs(c1.value_at(k) - c2.value_at(k)) <= 1e-10 * scale

    def test_commutative(self, rng):
        f = make_profile(rng, P21, -2, 3)
        g = make_profile(rng, P21, -1, 4)
        d = convolve(f, g) - convolve(g, f)
        assert lp_norm(d, math.inf) < 1e-12

    def test_normalized_ball_kernel_is_averaging(self):
        """mu(G_i)^{-1} 1_{G_i} * f is the mean of f over the scale-i cosets;
        averaging fixes the invariant function 1_{G_i} itself."""
        ball = RadialProfile.ball_indicator(P21, 1)
        c = convolve((1.0 / 0.5) * ball, ball)
        for k in range(-4, 8):
            assert abs(c.value_at(k) - ball.value_at(k)) < 1e-12

    def test_delta_approximant_recovers_f(self, rng):
        """Averaging at a scale below f's resolution is the identity: the
        normalized deep-ball kernel reproduces f exactly on fixed crowns."""
        f = make_profile(rng, P21, -3, 3, tail=0.6)
        for k_deep in (4, 8):
            delta = (2.0**k_deep) * RadialProfile.ball_indicator(P21, k_deep)
            c = convolve(f, delta)
            for k in range(-5, 4):
                assert abs(c.value_at(k) - f.value_at(k)) < 1e-11

    def test_direct_requires_zero_tail(self):
        f = RadialProfile.ball_indicator(P21, 0)
        with pytest.raises(ValueError):
            convolve_direct(f, f)


class TestMajorant:
    def test_running_max(self):
        f = RadialProfile(P21, 0, 2, [0.0, 5.0, 1.0])
        m = majorant(f)
        assert list(m.coeffs.real) == [0.0, 5.0, 5.0]
        assert m.tail == 5.0

    def test_already_decreasing_fixed(self):
        # decreasing in ||x|| means increasing toward 0, i.e. in crown index
        f = RadialProfile(P21, -1, 2, [0.25, 0.5, 1.0, 2.0], tail=4.0)
        m = majorant(f)
        assert np.allclose(m.coeffs, np.abs(f.coeffs))
        assert m.tail == 4.0

    @settings(max_examples=40, deadline=None)
    @given(profile_st(max_window=20))
    def test_dominates_pointwise(self, f):
        m = majorant(f)
        for k in range(f.kmin - 2, f.kmax + 3):
            assert abs(f.value_at(k)) <= m.value_at(k).real + 1e-14

    def test_monotone(self, rng):
        f = make_profile(rng, P21, -3, 3)
        g = f + make_profile(rng, P21, -3, 3)  # |g| >= |f| not guaranteed; build one
        g = RadialProfile(P21, -3, 3, np.abs(f.coeffs) + 1.0)
        mf, mg = majorant(f), majorant(g)
        for k in range(-5, 6):
            assert mf.value_at(k).real <= mg.value_at(k).real + 1e-14


def test_window_validation():
    with pytest.raises(ValueError):
        RadialProfile(P21, 2, 1, [])
    with pytest.raises(ValueError):
        RadialProfile(P21, 0, 1, [1.0])


def test_convolve_builds_one_profile(monkeypatch):
    """The transforms, their product and the back transform stay on arrays,
    and agree with the profile route bit for bit."""
    rng = np.random.default_rng(26)
    g = make_profile(rng, P21, -3, 4, tail=0.5 - 0.25j)
    f = make_profile(rng, P21, -1, 6, tail=0.25j)
    gh, fh = radial.align(radial_fourier(g), radial_fourier(f))
    ref = radial_fourier(RadialProfile(
        P21, gh.kmin, gh.kmax, gh.coeffs * fh.coeffs, tail=gh.tail * fh.tail
    ))
    built = []
    init = RadialProfile.__post_init__
    monkeypatch.setattr(RadialProfile, "__post_init__", lambda self: built.append(init(self)))
    out = convolve(g, f)
    assert len(built) == 1
    assert (out.kmin, out.kmax) == (ref.kmin, ref.kmax)
    assert out.coeffs.tobytes() == ref.coeffs.tobytes()
    assert np.array([out.tail]).tobytes() == np.array([ref.tail]).tobytes()

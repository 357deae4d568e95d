import cmath
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from qharm import kernel
from qharm.errors import CancellationError, ToleranceError, WindowOverflowError
from qharm.field import FieldParams
from qharm.kernel import (
    KernelEvalConfig,
    bound_ratio,
    bound_ratios,
    default_mass_window,
    kernel_at_zero,
    kernel_ball_integral,
    kernel_crown_sum,
    kernel_exp_form,
    kernel_l1_norm,
    kernel_profile,
    kernel_series,
)
from qharm.radial import convolve, improper_integral, lp_norm

from conftest import largest_alpha

P21 = FieldParams(2, 1, 1.0)
P31 = FieldParams(3, 1, 1.0)


class TestComplexTime:
    def test_rejects_closed_left_half_plane(self):
        for evaluator in (kernel_exp_form, kernel_crown_sum, kernel_series, kernel_ball_integral):
            for z in (0.0, -1.0 + 2j, 1j):
                with pytest.raises(ValueError, match=r"^complex time needs Re z > 0"):
                    evaluator(z, 0, P21)
            assert cmath.isfinite(evaluator(0.5 + 1j, 0, P21).value)
        for z in (0.0, -1.0 + 2j):
            with pytest.raises(ValueError, match=r"^complex time needs Re z > 0"):
                kernel_at_zero(z, P21)

    @pytest.mark.parametrize(
        "z",
        [math.inf, complex(math.inf, 1), complex(1, math.nan), complex(math.nan, 1),
         complex(1, math.inf), complex(1, -math.inf)],
        ids=["inf", "inf-re", "nan-im", "nan-re", "inf-im", "-inf-im"],
    )
    def test_nonfinite_time_refused_before_any_work(self, z, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the kernel evaluated before z was checked")

        for name in ("_exp_form_block", "_float_qpow", "_cexp", "gamma_qn", "_mass_window",
                     "_sphere_measures", "_first_term"):
            monkeypatch.setattr(kernel, name, no_work)
        evaluators = [
            lambda z: kernel_exp_form(z, 0, P21),
            lambda z: kernel_crown_sum(z, 0, P21),
            lambda z: kernel_series(z, 0, P21),
            lambda z: kernel_at_zero(z, P21),
            lambda z: kernel_ball_integral(z, 0, P21),
            lambda z: kernel_profile(z, (-1, 1), P21),
            lambda z: kernel_l1_norm(z, P21),
            lambda z: default_mass_window(z, P21),
            lambda z: bound_ratios(z, (-1, 1), P21),
            lambda z: bound_ratio(z, 0, P21),
        ]
        for evaluator in evaluators:
            with pytest.raises(ValueError, match="^semigroup time must be finite, got "):
                evaluator(z)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelEvalConfig(tail_budget=4)
        with pytest.raises(ValueError):
            KernelEvalConfig(tol=0.0)


class TestEvaluatorAgreement:
    def test_exp_vs_crown(self):
        for z in (1.0 + 0j, 0.3 + 0.8j, 5.0 - 2.0j):
            for k_x in (-3, 0, 2):
                a = kernel_exp_form(z, k_x, P31)
                b = kernel_crown_sum(z, k_x, P31)
                assert abs(a.value - b.value) <= 1e-10 * max(
                    abs(a.value), 1e-280
                ) + a.tail_bound + b.tail_bound

    def test_series_small_time(self):
        a = kernel_series(0.1 + 0j, 0, P21)
        b = kernel_exp_form(0.1 + 0j, 0, P21)
        assert abs(a.value - b.value) < 1e-11

    def test_three_way_complex(self):
        """Pairwise agreement within the returned certificates: the series
        carries a large roundoff bound here (its max term is ~ 1e8)."""
        params = FieldParams(2, 1, 2.0)
        z = 1.0 + 1.0j
        k_x = 1  # ||x|| = 1/2
        results = [
            kernel_exp_form(z, k_x, params),
            kernel_crown_sum(z, k_x, params),
            kernel_series(z, k_x, params),
        ]
        ref = results[0]
        for other in results[1:]:
            budget = 1e-10 * abs(ref.value) + ref.tail_bound + other.tail_bound
            assert abs(other.value - ref.value) <= budget

    def test_series_guard(self):
        with pytest.raises(CancellationError):
            kernel_series(50.0 + 0j, 0, P21)  # |z| ||x||^-alpha = 50 > 8

    def test_series_leading_term(self):
        """For tiny |z| the k = 1 term dominates with relative error O(|z|)."""
        from qharm.gamma import gamma_qn

        z = 1e-6 + 0j
        lead = -z * gamma_qn(1 * P21.alpha + P21.n, P21)
        full = kernel_exp_form(z, 0, P21).value
        assert abs(full - lead) < 5e-6 * abs(lead)

    def test_budget_error(self):
        with pytest.raises(ToleranceError):
            kernel_exp_form(1.0 + 0j, 60, P21, KernelEvalConfig(tail_budget=8))


class TestSmallTimeAndSymmetry:
    def test_value_vanishes_as_t_to_zero(self):
        vals = [abs(kernel_exp_form(t + 0j, 0, P21).value) for t in (1e-2, 1e-5, 1e-9)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-8

    def test_conjugation(self):
        z = 0.7 + 1.3j
        a = kernel_exp_form(z, -1, P31).value
        b = kernel_exp_form(z.conjugate(), -1, P31).value
        assert abs(a.conjugate() - b) < 1e-14


class TestKernelAtZero:
    def test_real_positive_and_stable(self):
        a = kernel_at_zero(1.0 + 0j, P21)
        b = kernel_at_zero(1.0 + 0j, P21, KernelEvalConfig(tail_budget=64, tol=1e-15))
        assert a.value.imag == 0.0
        assert a.value.real > 0
        assert abs(a.value - b.value) < 1e-10

    def test_scaling_identity(self):
        """kernel_at_zero(q**alpha z) = q**(-n) kernel_at_zero(z), exactly by
        the crown index shift."""
        for params in (P21, FieldParams(3, 2, 0.5)):
            q, n, alpha = params.q, params.n, params.alpha
            z = 0.8 + 0.4j
            a = kernel_at_zero(float(q) ** alpha * z, params).value
            b = kernel_at_zero(z, params).value * float(q) ** (-n)
            assert abs(a - b) < 1e-12

    def test_real_time_real_output(self):
        assert abs(kernel_at_zero(3.0 + 0j, P31).value.imag) < 1e-14

    @pytest.mark.parametrize("k_x", [150, 200, 400])
    def test_small_alpha_near_origin(self, k_x):
        """Near the origin at alpha = 0.05 the point value is K_1(0): the
        budget counts from the first term that can reach tol, not through the
        terms below it."""
        params = FieldParams(2, 1, 0.05)
        ref = kernel_at_zero(1.0 + 0j, params).value
        assert abs(kernel_exp_form(1.0 + 0j, k_x, params).value - ref) <= 1e-13 * abs(ref)

    def test_small_alpha(self):
        """At alpha = 0.05 the terms run some 200 crowns out past j = 0 before
        they flush to 0, and both sides fit the budget; where the weights
        leave the float range the call raises instead of returning NaN."""
        params, z = FieldParams(2, 1, 0.05), 0.8 + 0.4j
        a = kernel_at_zero(2.0**0.05 * z, params).value
        b = kernel_at_zero(z, params).value / 2
        assert abs(a - b) <= 1e-12 * abs(b)
        with pytest.raises(WindowOverflowError, match=r"^crown weight q\*\*\(504\) at q=5 "):
            kernel_at_zero(1e-3, FieldParams(5, 3, 0.05))


class TestMassAndL1:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_mass_one(self, t):
        w = default_mass_window(t + 0j, P21, tol=1e-12)
        prof = kernel_profile(t + 0j, w, P21)
        mass = improper_integral(prof) + kernel_ball_integral(t + 0j, w[1] + 1, P21).value
        assert abs(mass - 1.0) <= 1e-10

    def test_profile_real_for_real_time(self):
        w = default_mass_window(1.0 + 0j, P21, tol=1e-10)
        prof = kernel_profile(1.0 + 0j, w, P21)
        assert float(np.max(np.abs(prof.coeffs.imag))) < 1e-13
        # positivity is reported, not asserted: record the observed minimum
        assert float(np.min(prof.coeffs.real)) > -1e-12

    def test_l1_at_least_mass(self):
        res = kernel_l1_norm(1.0 + 0j, P21)
        assert res.l1 >= 1.0 - 1e-10
        assert res.l1 <= 1.0 + 1e-6  # real-time kernel is (numerically) positive

    def test_l1_conjugation(self):
        z = 0.5 + 0.9j
        a = kernel_l1_norm(z, P31)
        b = kernel_l1_norm(z.conjugate(), P31)
        assert abs(a.l1 - b.l1) < 1e-11
        assert abs(a.majorant_l1 - b.majorant_l1) < 1e-11

    def test_majorant_dominates(self):
        for z in (1.0 + 0j, 0.2 + 1.0j, 3.0 - 1.5j):
            res = kernel_l1_norm(z, P21)
            assert res.majorant_l1 >= res.l1 - 1e-12

    def test_l1_sector_ratio_bounded(self):
        """||K_z||_1 cos(arg z) stays bounded across the sector at fixed |z|."""
        for theta in (0.0, 0.7, 1.4):
            z = cmath.exp(1j * theta)
            res = kernel_l1_norm(z, P21)
            assert res.l1 * math.cos(theta) <= 1.05

    def test_refinement_stability(self):
        """The recorded constant moves by < 2% under a tighter budget."""
        z = 0.3 + 1.1j
        a = kernel_l1_norm(z, P21)
        b = kernel_l1_norm(z, P21, KernelEvalConfig(tail_budget=384, tol=1e-15))
        assert abs(a.l1 - b.l1) <= 0.02 * b.l1


class TestBoundRatio:
    def test_finite_on_rays(self):
        for theta in (0.0, 1.0, -1.4):
            for mod in (1e-2, 1.0, 1e2):
                z = mod * cmath.exp(1j * theta)
                for k_x in range(-2, 3):
                    r = bound_ratio(z, k_x, P31)
                    assert math.isfinite(r)
                    assert r >= 0

    def test_large_norm_power_regime(self):
        """Far from the origin the ratio approaches the power-law envelope,
        so successive crowns at fixed z stay within a mild factor."""
        z = 1.0 + 0j
        rs = [bound_ratio(z, k_x, P21) for k_x in range(-8, -3)]
        for a, b in zip(rs, rs[1:]):
            assert 0.3 < a / b < 3.0

    @pytest.mark.parametrize(
        "t, window",
        [(1.0, (-1100, -1100)), (1.0, (-1000, -1000)), (1.0, (-1100, 2)), (1e300, (0, 0))],
    )
    def test_factor_past_float_range_raises_before_any_warning(self, t, window):
        # ||x|| = 2**1100 is no float; at ||x|| = 2**1000, or at (Re z)**(1/alpha)
        # = 1e600, ((Re z)**(1/alpha) + ||x||)**1.5 is none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = re.escape(f"estimate factor at Re z = {t!r}, ||x|| = 2**{-window[0]} ")
            with pytest.raises(WindowOverflowError, match=match):
                bound_ratios(t, window, FieldParams(2, 1, 0.5))

    def test_first_case_region(self):
        """Inside ||x|| <= (Re z)**(1/alpha) the ratio stays below the
        recorded grid maximum for these parameters."""
        z = 4.0 + 0j
        for k_x in range(0, 4):  # ||x|| <= 1 < 4 = (Re z)^(1/alpha)
            assert bound_ratio(z, k_x, P21) <= 2.0


class TestSemigroupProfile:
    def test_convolution_semigroup(self):
        z, w = 0.7 + 0.4j, 0.5 - 0.2j
        win_z = default_mass_window(z, P21, tol=1e-11)
        win_w = default_mass_window(w, P21, tol=1e-11)
        win = (min(win_z[0], win_w[0]), max(win_z[1], win_w[1]))
        Kz = kernel_profile(z, win, P21)
        Kw = kernel_profile(w, win, P21)
        Kzw = kernel_profile(z + w, win, P21)
        assert lp_norm(convolve(Kz, Kw) - Kzw, 1) <= 1e-8

    def test_crown_sum_cross_check(self):
        w = (-20, 20)
        a = kernel_profile(1.0 + 0.5j, w, P31)
        b = kernel_profile(1.0 + 0.5j, w, P31, evaluator=kernel_crown_sum)
        assert lp_norm(a - b, math.inf) < 1e-11

    @pytest.mark.parametrize(
        "t, window, params, power",
        [(1e-200, (0, 700), FieldParams(2, 2, 1.0), 1346),
         (1e-110, (0, 400), FieldParams(2, 3, 1.0), 1122)],
    )
    def test_exp_form_weight_past_float_range_raises(self, t, window, params, power):
        # at so small a time the first term's weight q**(-j0 n) is no float
        match = re.escape(f"crown weight q**({power}) at q=2 leaves the float range")
        with pytest.raises(WindowOverflowError, match=match):
            kernel_profile(t, window, params)


def _bytes(res) -> bytes:
    """Every value and bound of an evaluator's result, as raw bytes."""
    if isinstance(res, tuple) and isinstance(res[0], np.ndarray):  # bound_ratios
        return b"".join(a.tobytes() for a in res)
    if hasattr(res, "coeffs"):  # a kernel profile
        return res.coeffs.tobytes() + np.array([res.tail]).tobytes()
    return np.array(res, dtype=complex).tobytes()


def _outcome(fn, args):
    """A call's bytes, or the type and message of the typed error it raised."""
    try:
        return _bytes(fn(*args))
    except (CancellationError, ToleranceError, WindowOverflowError) as exc:
        return type(exc), str(exc)


SMALL_BUDGET = KernelEvalConfig(tail_budget=8)  # every evaluator's budget ToleranceError


def _warm_calls():
    """Calls that share times: per-crown exp-form, crown-sum and series values
    in ascending, descending and shuffled crown order, profile windows by
    block and crown by crown, K_z(0), bound ratios and ball integrals, the
    budget ToleranceError and WindowOverflowError paths, over interleaved
    fields, z = 1+0j against 1-0j, and real and complex times."""
    rng = np.random.default_rng(26)
    fields = [P21, P31, FieldParams(3, 2, 0.5), FieldParams(2, 1, 0.05), FieldParams(2, 1, 10.0)]
    times = [1 + 0j, complex(1, -0.0), 0.3, 2.0, 0.7 + 1.3j, 0.2 - 0.9j]
    groups = []
    for params in fields:
        for z in times:
            crowns = list(range(-8, 15))  # past -j_first, where the sums stop at j_first
            shuffled = [int(k) for k in rng.permutation(crowns)]
            calls = [
                *[(kernel_exp_form, (z, k, params)) for k in crowns],
                *[(kernel_crown_sum, (z, k, params)) for k in shuffled],
                *[(kernel_exp_form, (z, k, params)) for k in crowns[::-1]],
                *[(kernel_series, (z, k, params)) for k in shuffled[:12]],
                *[(kernel_exp_form, (z, k, params)) for k in shuffled],
                *[(kernel_crown_sum, (z, k, params)) for k in crowns[::-1]],
                *[(kernel_profile, (z, w, params)) for w in ((-5, 5), (-2, 20), (0, 0), (-12, 3))],
                *[(kernel_profile, (z, (-3, 4), params, kernel.DEFAULT_CFG, ev))
                  for ev in (kernel_exp_form, kernel_crown_sum)],
                (kernel_at_zero, (z, params)),
                *[(bound_ratios, (z, w, params)) for w in ((-3, 3), (1, 6), (-1100, -1099))],
                *[(kernel_ball_integral, (z, k, params)) for k in (-4, 0, 5)],
                *[(fn, (z, k, params, SMALL_BUDGET)) for k in (-2, 3)
                  for fn in (kernel_exp_form, kernel_crown_sum, kernel_series)],
                (kernel_crown_sum, (z, -1100, params)),
                *[(kernel_series, (z, k, params)) for k in crowns[::-1]],
            ]
            groups.append(calls)
    order = [int(i) for i in rng.permutation(len(groups))]
    cut = len(order) - len(order) // 4 * 2  # an even number of groups is left to pair
    seq = [call for i in order[:cut] for call in groups[i]]  # whole groups
    rest = [groups[i] for i in order[cut:]]
    for pair in zip(rest[::2], rest[1::2]):  # two times alternating, call by call
        seq += [call for both in zip(*pair) for call in both]
    return seq


def test_warm_equals_cold():
    """The exp-form terms and scales at one time, the crown sum's powers and
    the series' Gamma factors are shared across calls, the sums are not:
    every warm value and bound equals, byte for byte, a cold call's, and a
    warm call that raises raises the cold call's error."""
    kernel._clear_state()
    calls = _warm_calls()
    warm = [_outcome(fn, args) for fn, args in calls]
    for (fn, args), got in zip(calls, warm):
        kernel._clear_state()
        assert got == _outcome(fn, args), (fn.__name__, args)
    kinds = {(fn, got[0]) for (fn, _), got in zip(calls, warm) if isinstance(got, tuple)}
    for path in [(fn, ToleranceError) for fn in (kernel_exp_form, kernel_crown_sum, kernel_series)] + [
        (bound_ratios, WindowOverflowError), (kernel_crown_sum, WindowOverflowError),
        (kernel_series, CancellationError),
    ]:
        assert path in kinds, path  # every error path ran


def test_terms_keyed_on_signed_zero():
    """1+0j == 1-0j, but -z carries the zero's sign into w: the two are two times."""
    kernel._clear_state()
    kernel_exp_form(1 + 0j, 0, P21)
    kept = kernel._state
    minus = _bytes(kernel_exp_form(complex(1, -0.0), 0, P21))
    assert kernel._state.key != kept.key and kernel._state.terms is not kept.terms
    kernel._clear_state()
    assert minus == _bytes(kernel_exp_form(complex(1, -0.0), 0, P21))


def test_crown_sum_keeps_no_state():
    """The crown sum neither reads nor writes the exp form's state: after
    every call of the warm sequence, a crown-sum call at that call's time and
    field, and one at another field, leaves the state as it was and returns
    a cold call's bytes or raises its error."""
    cold = {}

    def crown_sum_cold(args):
        if args not in cold:
            saved = kernel._state
            kernel._clear_state()
            cold[args] = _outcome(kernel_crown_sum, args)
            kernel._state = saved
        return cold[args]

    kernel._clear_state()
    ks = [-8, -2, 0, 3, 14, -1100]
    for i, (fn, args) in enumerate(_warm_calls()):
        _outcome(fn, args)
        params = next(a for a in args if isinstance(a, FieldParams))
        for case in ((args[0], ks[i % len(ks)], params), (args[0], ks[i % 5], P31)):
            kept = kernel._state
            got = _outcome(kernel_crown_sum, case)
            assert kernel._state is kept, (fn.__name__, args)
            assert got == crown_sum_cold(case), (fn.__name__, args, case)


def test_gamma_factors_keyed_on_the_field():
    """(2, 1, 0.5) and (2, 1, 1.0) share q and n but not the factors
    Gamma_q^(n)(k alpha + n): each field's series equals a cold call's."""
    fields = (FieldParams(2, 1, 0.5), FieldParams(2, 1, 1.0))
    want = {}
    for params in fields:
        kernel._clear_state()
        want[params] = _bytes(kernel_series(0.4, 0, params))
    kernel._clear_state()
    for params in fields + fields[::-1]:
        assert _bytes(kernel_series(0.4, 0, params)) == want[params], params


@pytest.mark.parametrize("q", [2, 3])
def test_growth_keeps_terms_finite(q):
    """At the largest alpha a field takes, lam_j leaves the floats one crown
    below j = 0: growing the kept range never computes a term there."""
    for n in (1, 3):
        params = FieldParams(q, n, largest_alpha(q))
        for z in (1e-307, 1e-307 + 0.5j, 0.5, 0.3 - 0.4j):
            for crowns in (range(-6, 3), range(2, -7, -1)):
                kernel._clear_state()
                for k in crowns:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            kernel_exp_form(z, k, params)
                        except WindowOverflowError:
                            pass
                    terms = getattr(kernel._state, "terms", None)
                    assert terms is None or np.isfinite(terms).all(), (n, z, k)
                    assert terms is None or not terms.flags.writeable


def test_threads_racing_on_the_slot_get_cold_values():
    """The state is read and rebound as one tuple: threads that race on it
    with the three evaluators, switching every microsecond, each get the
    values, or the error, of a cold call."""
    cases = [(fn, z, k, params) for params in (P21, P31) for z in (0.5 + 0.2j, 1.5, 0.3 - 1j)
             for k in range(-4, 5) for fn in (kernel_exp_form, kernel_crown_sum, kernel_series)]
    want = {}
    for case in cases:
        kernel._clear_state()
        want[case] = _outcome(case[0], case[1:])
    wrong = []

    def work(offset):
        try:
            for i in range(300):
                case = cases[(offset + 7 * i) % len(cases)]
                if _outcome(case[0], case[1:]) != want[case]:
                    wrong.append(case)
        except Exception as exc:  # reported below, not lost in the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []

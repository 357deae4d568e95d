import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharm.errors import LatticeWindowError
from qharm.field import QuotientLattice, ball_measure
from qharm.radial import RadialProfile, radial_fourier
from qharm.verification import TOL_DOMINATION
from qharm.vilenkin import (
    QuotientFunction,
    _domination_rows,
    _majorant_l1,
    average_Ai,
    domination_check,
    doob_check,
    doob_check_tuple,
    group_convolve,
    group_convolve_direct,
    group_dft,
    is_radial,
    lift_profile,
    maximal_M,
)

from conftest import LATTICE_SPECS, make_profile, quotient_params, spec_lattice


def lattice(q=2, n=1, M=3, N=3, alpha=1.0):
    return QuotientLattice(quotient_params(q, n, alpha), M, N)


def lp_norm_quotient(f, p):
    """L^p(G) norm, 1 <= p <= inf; every coset carries measure q**(-n*N)."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not p >= 1:  # a NaN p too
        raise ValueError(f"p must be >= 1, got {p}")
    return float(np.sum(np.abs(f.values) ** p) * float(f.lattice.coset_measure)) ** (1.0 / p)


def majorant_l1_lattice(phi):
    """L^1 norm of the radially decreasing majorant of a radial phi."""
    assert is_radial(phi)
    return float(_majorant_l1(phi.lattice, phi.values[None])[0])


def random_qf(rng, lat):
    return QuotientFunction(
        lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    )


class TestAveraging:
    def test_constants_fixed(self):
        lat = lattice()
        c = QuotientFunction(lat, np.full(lat.size, 2.5 - 1j))
        for i in range(-lat.M, lat.N + 1):
            assert np.allclose(average_Ai(c, i).values, c.values)

    def test_finest_scale_identity(self, rng):
        lat = lattice()
        f = random_qf(rng, lat)
        assert np.allclose(average_Ai(f, lat.N).values, f.values)

    def test_coarsest_scale_global_mean(self, rng):
        lat = lattice(q=3)
        f = random_qf(rng, lat)
        assert np.allclose(average_Ai(f, -lat.M).values, np.mean(f.values))

    def test_index_out_of_window(self, rng):
        lat = lattice()
        with pytest.raises(ValueError):
            average_Ai(random_qf(rng, lat), lat.N + 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2**10 - 1))
    def test_tower_property(self, i, j, seed):
        lat = lattice()
        rng = np.random.default_rng(seed)
        f = random_qf(rng, lat)
        a = average_Ai(average_Ai(f, i), j)
        b = average_Ai(f, min(i, j))
        assert np.max(np.abs(a.values - b.values)) < 1e-13

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_positive_contraction(self, p, rng):
        lat = lattice(q=3)
        for _ in range(10):
            f = random_qf(rng, lat)
            for i in (-2, 0, 2):
                out = average_Ai(f, i)
                assert lp_norm_quotient(out, p) <= lp_norm_quotient(f, p) + 1e-12
            pos = QuotientFunction(lat, np.abs(f.values))
            assert np.min(average_Ai(pos, 0).values.real) >= -1e-14


@pytest.mark.parametrize("p", [0.5, math.nan, -math.inf])
def test_lp_norm_quotient_refuses_p_below_one(rng, p):
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_norm_quotient(random_qf(rng, lattice()), p)


class TestMaximal:
    def test_dominates_nonnegative_f(self, rng):
        lat = lattice()
        f = QuotientFunction(lat, np.abs(rng.standard_normal(lat.size)))
        mf = maximal_M(f)
        assert np.all(mf.values.real >= f.values.real - 1e-14)

    def test_homogeneity(self, rng):
        lat = lattice()
        f = random_qf(rng, lat)
        a = maximal_M((-2.5 + 0j) * f)
        b = maximal_M(f)
        assert np.allclose(a.values, 2.5 * b.values)

    def test_single_coset_indicator_by_hand(self):
        """M of one finest-coset indicator equals the coset-measure ratio of
        the smallest ball containing both the point and the support."""
        lat = lattice(q=2, M=2, N=2)
        vals = np.zeros(lat.size)
        vals[lat.index_of([1])] = 1.0  # the coset 2^{-2} + G_2
        f = QuotientFunction(lat, vals.astype(complex))
        mf = maximal_M(f).values.real
        # at the support the A_N average is 1
        assert abs(mf[lat.index_of([1])] - 1.0) < 1e-14
        # at 0: the smallest common ball is G_{-2} (norm 4 vs the support at
        # norm 4): the support element has norm q^2 = 4 -> ball G_{-2} of
        # measure 4, containing 16 cosets: average = 1/16... the best scale
        # is the one whose coset through 0 first captures the support.
        best = 0.0
        for i in range(-lat.M, lat.N + 1):
            av = average_Ai(f, i).values.real[0]
            best = max(best, av)
        assert abs(mf[0] - best) < 1e-14

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_filtration_pass_against_one_scale_averages(self, rng, spec):
        """The one-pass filtration max equals the max over the one-scale
        average_Ai, and so does the l2-valued Doob pair built on it."""
        lat = spec_lattice(spec)
        fs = [random_qf(rng, lat) for _ in range(3)]
        refs = []
        for f in fs:
            absf = QuotientFunction(lat, np.abs(f.values))
            scales = range(-lat.M, lat.N + 1)
            ref = np.max([average_Ai(absf, i).values.real for i in scales], axis=0)
            got = maximal_M(f).values
            assert np.all(got.imag == 0.0)
            assert np.max(np.abs(got.real - ref)) <= 1e-15 * np.max(ref)
            refs.append(ref)
        mu, p = float(lat.coset_measure), 1.5

        def l2_lp(stack):
            return float(np.sum(np.sqrt(np.sum(np.square(stack), axis=0)) ** p) * mu) ** (1 / p)

        lhs, rhs = doob_check_tuple(fs, p)
        assert abs(lhs - l2_lp(refs)) <= 1e-15 * lhs
        assert abs(rhs - l2_lp(np.abs([f.values for f in fs]))) <= 1e-15 * rhs

    @pytest.mark.parametrize("spec", [(2, 1, 6, 6), (3, 1, 4, 4), (3, 2, 2, 2)], ids=str)
    def test_filtration_pass_against_exact_sums(self, rng, spec):
        """Against averages summed exactly (math.fsum), per entry: every level
        is at most (M+N)(q**n - 1) additions of nonnegative terms and one
        division from |f|, so its relative error is below that count plus one
        times 2**-53 (with room for the roundoff of that bound)."""
        lat = spec_lattice(spec)
        q, n = lat.params.q, lat.params.n
        absf = np.abs(random_qf(rng, lat).values)
        exact = np.zeros(lat.size)
        for i in range(-lat.M, lat.N + 1):
            low = q ** (i + lat.M)
            high = lat.coord_order // low
            blocks = absf.reshape(sum(((high, low) for _ in range(n)), ()))
            blocks = np.moveaxis(blocks, tuple(range(0, 2 * n, 2)), tuple(range(n)))
            cols = blocks.reshape(high**n, low**n).T
            means = np.array([math.fsum(c) for c in cols]) / high**n
            lifted = np.broadcast_to(means.reshape((1, low) * n), (high, low) * n)
            exact = np.maximum(exact, lifted.reshape(lat.size))
        got = maximal_M(QuotientFunction(lat, absf)).values.real
        steps = (lat.M + lat.N) * (q**n - 1) + 1
        assert np.max(np.abs(got - exact) / exact) <= 1.01 * steps * 2.0**-53


class TestDoob:
    def test_hard_inequality(self, rng):
        lat = lattice(q=3)
        for _ in range(50):
            f = random_qf(rng, lat)
            lhs, rhs, ok = doob_check(f, 2.0)
            assert ok
            assert lhs <= rhs + 1e-10

    def test_constant_function(self):
        lat = lattice()
        c = QuotientFunction(lat, np.full(lat.size, 3.0 + 0j))
        lhs, rhs, ok = doob_check(c, 2.0)
        assert ok
        # the lattice carries total measure mu(G_{-M}) = q**(n*M)
        assert abs(lhs - 3.0 * math.sqrt(2.0**3)) < 1e-12

    def test_p_validation(self, rng):
        with pytest.raises(ValueError):
            doob_check(random_qf(rng, lattice()), 1.0)

    @pytest.mark.parametrize("spec", [(2, 2, 2, 2), (3, 2, 1, 2)], ids=str)
    def test_two_dimensional(self, rng, spec):
        lat = spec_lattice(spec)
        for p in (1.5, 2.0, 3.0):
            lhs, rhs, ok = doob_check(random_qf(rng, lat), p)
            assert ok, (lhs, rhs)

    def test_l2_tuple_variant(self, rng):
        lat = lattice()
        fs = [random_qf(rng, lat) for _ in range(5)]
        lhs, rhs = doob_check_tuple(fs, 2.0)
        assert lhs <= 2.0 * rhs + 1e-10  # observed constants stay near Doob's


class TestDomination:
    def test_averaging_kernel_tight(self, rng):
        """phi = normalized ball indicator: phi * f = A_i f, ||R_phi||_1 = 1,
        so the defect is <= 0 exactly."""
        lat = lattice()
        norms = lat.norms()
        i0 = 1
        ball = (norms <= 2.0 ** (-i0)).astype(complex) / 2.0 ** (-i0)
        phi = QuotientFunction(lat, ball)
        assert abs(majorant_l1_lattice(phi) - 1.0) < 1e-14
        f = random_qf(rng, lat)
        conv = group_convolve(phi, f)
        av = average_Ai(f, i0)
        assert np.max(np.abs(conv.values - av.values)) < 1e-13
        assert domination_check(phi, f) <= 1e-13

    def test_random_instances(self, rng):
        lat = lattice(q=3)
        norms = lat.norms()
        for _ in range(25):
            level = 2.0
            vals = np.empty(lat.size, dtype=complex)
            for k in range(-lat.M, lat.N):
                vals[norms == 3.0 ** (-k)] = level
                level *= rng.uniform(0.3, 1.0)
            vals[norms == 0.0] = level
            phi = QuotientFunction(lat, vals)
            f = random_qf(rng, lat)
            assert domination_check(phi, f) <= 1e-12

    def test_scaling_homogeneity(self, rng):
        lat = lattice()
        norms = lat.norms()
        vals = np.where(norms > 0, 1.0 / np.maximum(norms, 1e-30), 8.0).astype(complex)
        vals[norms == 0.0] = 8.0 + 0j
        phi = QuotientFunction(lat, vals)
        f = random_qf(rng, lat)
        a = majorant_l1_lattice(phi)
        b = majorant_l1_lattice((3.0 + 0j) * phi)
        assert abs(b - 3.0 * a) < 1e-12

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_majorant_against_crown_loop(self, rng, spec):
        lat = spec_lattice(spec)
        q, n = lat.params.q, lat.params.n
        crowns = rng.standard_normal(lat.M + lat.N + 1) + 1j * rng.standard_normal(
            lat.M + lat.N + 1
        )
        phi = QuotientFunction(lat, crowns[lat.scales() + lat.M])
        total, run = 0.0, 0.0
        for k, v in zip(range(-lat.M, lat.N), crowns):
            run = max(run, abs(v))
            total += run * float(q) ** (-k * n) * (1.0 - float(q) ** (-n))
        total += max(run, abs(crowns[-1])) * float(lat.coset_measure)
        assert abs(majorant_l1_lattice(phi) - total) <= 1e-14 * total

    @pytest.mark.parametrize("spec", [(2, 2, 2, 2), (3, 2, 1, 2)], ids=str)
    def test_two_dimensional_against_direct_sum(self, rng, spec):
        """Domination with the convolution taken as the exhaustive double sum."""
        lat = spec_lattice(spec)
        for _ in range(3):
            levels = rng.uniform(0.5, 2.0) * np.cumprod(rng.uniform(0.3, 1.0, lat.M + lat.N))
            prof = RadialProfile(lat.params, -lat.M, lat.N - 1, levels, tail=levels[-1] * 0.5)
            phi, f = lift_profile(prof, lat), random_qf(rng, lat)
            conv = group_convolve_direct(phi, f).values
            bound = majorant_l1_lattice(phi) * maximal_M(f).values.real
            assert np.max(np.abs(conv) - bound) <= 1e-12
            assert domination_check(phi, f) <= 1e-12

    def test_nonradial_rejected(self, rng):
        lat = lattice()
        vals = np.zeros(lat.size, dtype=complex)
        vals[lat.index_of([1])] = 1.0
        with pytest.raises(ValueError):
            domination_check(QuotientFunction(lat, vals), random_qf(rng, lat))

    @pytest.mark.parametrize(
        "spec", [(2, 1, 3, 3), (3, 1, 3, 3), (2, 2, 2, 2), (3, 2, 1, 2), (3, 2, 0, 0)], ids=str
    )
    def test_rows_match_one_pair_at_a_time(self, rng, spec):
        """The block defects of _domination_rows equal domination_check on each
        (phi, f) pair, bit for bit."""
        lat = spec_lattice(spec)
        crowns = rng.uniform(0.1, 2.0, (5, lat.M + lat.N + 1))
        Phi = crowns[:, lat.scales() + lat.M].astype(complex)
        F = rng.standard_normal((5, lat.size)) + 1j * rng.standard_normal((5, lat.size))
        rows = _domination_rows(lat, Phi, F)
        singles = [
            domination_check(QuotientFunction(lat, phi), QuotientFunction(lat, f))
            for phi, f in zip(Phi, F)
        ]
        assert rows.tolist() == singles


class TestDominationGate:
    """Domination checks that can fail.  The suite's family grows away from the
    origin, so its majorant is the constant v_{-M} and its worst defect sits
    about 4 below the gate; here phi is truly radially decreasing, or extremal."""

    @pytest.mark.parametrize("spec", [(2, 1, 3, 3), (3, 1, 3, 3), (2, 2, 2, 2), (3, 2, 1, 2)],
                             ids=str)
    def test_radially_decreasing_family(self, rng, spec):
        lat = spec_lattice(spec)
        worst = -math.inf
        for _ in range(100):
            steps = rng.uniform(0.3, 1.0, lat.M + lat.N)
            crowns = rng.uniform(0.5, 2.0) * np.cumprod(np.r_[1.0, steps])[::-1]
            phi = QuotientFunction(lat, crowns[lat.scales() + lat.M])  # rising with k
            # the majorant of a radially decreasing phi is phi itself
            l1 = lp_norm_quotient(phi, 1.0)
            assert abs(majorant_l1_lattice(phi) - l1) <= 1e-14 * l1
            worst = max(worst, domination_check(phi, random_qf(rng, lat)))
        assert worst <= TOL_DOMINATION
        assert worst > -1.0  # close enough to the gate for it to bite

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_ball_indicator_is_extremal(self, rng, spec):
        """phi = 1_{G_k} has ||R_phi||_1 = mu(G_k) and phi * f = mu(G_k) A_k f,
        so for f = 1_{G_k} >= 0 the ratio |phi*f| / (||R_phi||_1 Mf) is exactly
        1 on G_k; for any f >= 0 it stays at most 1."""
        lat = spec_lattice(spec)
        for k in range(-lat.M, lat.N + 1):
            ball = QuotientFunction(lat, (lat.scales() >= k).astype(float))
            bound = majorant_l1_lattice(ball)
            assert abs(bound / float(ball_measure(k, lat.params)) - 1.0) <= 1e-14
            ratio = np.abs(group_convolve(ball, ball).values) / (
                bound * maximal_M(ball).values.real
            )
            inside = lat.scales() >= k
            assert np.max(np.abs(ratio[inside] - 1.0)) <= 1e-14
            f = QuotientFunction(lat, rng.uniform(0.0, 1.0, lat.size))
            assert domination_check(ball, f) <= TOL_DOMINATION


class TestGroupDFT:
    def test_roundtrip(self, rng):
        lat = lattice()
        f = random_qf(rng, lat)
        back = group_dft(group_dft(f, "forward"), "inverse")
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_plancherel(self, rng):
        lat = lattice(q=3, M=2, N=2)
        f = random_qf(rng, lat)
        F = group_dft(f, "forward")
        assert abs(lp_norm_quotient(f, 2.0) - lp_norm_quotient(F, 2.0)) < 1e-12

    def test_diagonalizes_convolution(self, rng):
        lat = lattice()
        f, g = random_qf(rng, lat), random_qf(rng, lat)
        lhs = group_dft(group_convolve(f, g), "forward").values
        rhs = group_dft(f, "forward").values * group_dft(g, "forward").values
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_kernel_is_the_canonical_character(self, rng):
        """The DFT kernel equals chi(x . xi) for the exact q-adic pairing of
        a lattice point with a dual-lattice point."""
        lat = lattice(q=3, M=1, N=2)
        dual = lat.dual()
        delta = np.zeros(lat.size, dtype=complex)
        y = 7
        delta[y] = 1.0
        F = group_dft(QuotientFunction(lat, delta), "forward")
        mu = float(lat.coset_measure)
        for xi in (0, 3, 11, 20):
            expect = np.conj(dualpair(lat, dual, xi, y)) * mu
            assert abs(F.values[xi] - expect) < 1e-13

    @pytest.mark.parametrize("spec", LATTICE_SPECS[:12], ids=str)
    def test_dual_crown_projects_onto_a_martingale_difference(self, rng, spec):
        """The inverse DFT of f's transform restricted to dual crown j is
        A_{-j} f - A_{-j-1} f, with A_{-M-1} f = 0 on the dual zero coset
        j = M; on seeded non-radial f, the benchmark's twelve lattices."""
        lat = spec_lattice(spec)
        f = random_qf(rng, lat)
        assert not is_radial(f)
        fhat = group_dft(f, "forward")
        scales = fhat.lattice.scales()
        for j in range(-lat.N, lat.M + 1):
            part = QuotientFunction(fhat.lattice, np.where(scales == j, fhat.values, 0.0))
            coarse = average_Ai(f, -j - 1).values if j < lat.M else 0.0
            want = average_Ai(f, -j).values - coarse
            gap = np.max(np.abs(group_dft(part, "inverse").values - want))
            assert gap <= 1e-13 * np.max(np.abs(f.values))

    def test_nd_convolution_matches_direct(self, rng):
        lat = lattice(q=2, n=2, M=2, N=2)
        f, g = random_qf(rng, lat), random_qf(rng, lat)
        a = group_convolve(f, g)
        b = group_convolve_direct(f, g)
        assert np.max(np.abs(a.values - b.values)) < 1e-12


class TestDirectConvolution:
    @pytest.mark.parametrize("spec", [s for s in LATTICE_SPECS if spec_lattice(s).size <= 81],
                             ids=str)
    def test_against_literal_double_sum(self, rng, spec):
        """sum_t phi(t) f(s - t) mu, one term at a time through lattice.sub."""
        lat = spec_lattice(spec)
        phi, f = random_qf(rng, lat), random_qf(rng, lat)
        mu = float(lat.coset_measure)
        want = np.array([
            sum(phi.values[t] * f.values[lat.sub(s, t)] for t in range(lat.size)) * mu
            for s in range(lat.size)
        ])
        got = group_convolve_direct(phi, f).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", [s for s in LATTICE_SPECS if spec_lattice(s).size <= 729],
                             ids=str)
    def test_against_fft(self, rng, spec):
        lat = spec_lattice(spec)
        phi, f = random_qf(rng, lat), random_qf(rng, lat)
        want = group_convolve(phi, f).values
        got = group_convolve_direct(phi, f).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def dualpair(lat, dual, xi, y):
    from qharm.field import character

    return character(dual.coords(xi), lat.coords(y), lat.params.q)


class TestCrownMetric:
    def test_measure_metric_is_norm_power_n(self):
        """The Haar-measure crown metric |s| = mu(G_k) on the crown at scale
        k equals ||s||**n, tying the lattice majorant ordering to the norm."""
        from qharm.field import ball_measure

        for q, n in ((2, 1), (3, 2)):
            lat = lattice(q=q, n=n, M=2, N=2)
            norms = lat.norms()
            for k in range(-2, 2):
                sel = np.nonzero(norms == float(q) ** (-k))[0]
                assert sel.size > 0
                metric = float(ball_measure(k, lat.params))
                assert abs(metric - float(lat.norm(int(sel[0]))) ** n) < 1e-15


class TestRadialLift:
    def test_lift_values(self, rng):
        lat = lattice()
        prof = RadialProfile(
            quotient_params(), -2, 1, rng.standard_normal(4), tail=0.7
        )
        lifted = lift_profile(prof, lat)
        assert is_radial(lifted)
        norms = lat.norms()
        assert np.allclose(lifted.values[norms == 4.0], prof.value_at(-2))
        assert np.allclose(lifted.values[norms == 0.0], 0.7)

    def test_group_dft_matches_radial_fourier(self, rng):
        """The brute quotient transform of a lifted profile equals the lift
        of the closed-form radial transform on the dual lattice."""
        lat = lattice(q=2, M=3, N=3)
        prof = RadialProfile(
            quotient_params(),
            -2,
            2,
            rng.standard_normal(5) + 1j * rng.standard_normal(5),
            tail=0.4,
        )
        lhs = group_dft(lift_profile(prof, lat), "forward")
        rhs = lift_profile(radial_fourier(prof), lat.dual())
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_window_must_fit(self, rng):
        lat = lattice(M=1, N=1)
        prof = RadialProfile(quotient_params(), -4, 0, np.ones(5))
        with pytest.raises(ValueError):
            lift_profile(prof, lat)

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_against_crown_masks(self, rng, spec):
        """The gather equals per-crown mask assignment, the zero coset taking
        the profile's value on the crowns k >= N."""
        lat = spec_lattice(spec)
        M, N = lat.M, lat.N
        if M + N:
            prof = make_profile(rng, lat.params, -M, N - 1, tail=0.3 - 0.2j)
        else:
            prof = RadialProfile(lat.params, 0, 2, np.full(3, 1.5j), tail=1.5j)
        norms = lat.norms()
        ref = np.empty(lat.size, dtype=complex)
        for k in range(-M, N):
            ref[norms == float(lat.params.q) ** (-k)] = prof.value_at(k)
        ref[norms == 0.0] = prof.value_at(N)
        assert np.array_equal(lift_profile(prof, lat).values, ref)

    def test_zero_coset_takes_the_inner_value(self):
        """A profile constant on the crowns k >= N lifts the same on any
        window; one that is not cannot be represented and is refused."""
        p = quotient_params(2, 1)
        lat = lattice(M=1, N=1)
        ball = RadialProfile.ball_indicator(p, 0)
        for prof in (ball, ball.padded(0, 1), ball.padded(-1, 4)):
            assert np.array_equal(lift_profile(prof, lat).values, [1, 0, 1, 0])
        for prof in (RadialProfile.sphere_indicator(p, 3), RadialProfile.sphere_indicator(p, 1)):
            with pytest.raises(LatticeWindowError):
                lift_profile(prof, lat)

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qharm.errors import LatticeWindowError, WindowOverflowError
from qharm.field import (
    _ELEMENT_CAP,
    _float_qpow,
    FieldModel,
    FieldParams,
    QuotientLattice,
    ball_measure,
    brute_sphere_character_integral,
    character,
    character_value,
    check_local_constancy,
    fractional_part,
    norm_exponent,
    qpow,
    sphere_character_integral,
    sphere_measure,
)

from conftest import LATTICE_SPECS, quotient_params, spec_lattice


class TestFieldParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldParams(1, 1, 1.0)
        with pytest.raises(ValueError):
            FieldParams(2, 0, 1.0)
        with pytest.raises(ValueError):
            FieldParams(2, 1, 0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="^exponent alpha must be positive and finite"):
            FieldParams(2, 1, alpha)

    @pytest.mark.parametrize("q, alpha", [(2, 1024.0), (2, 1e308), (3, 647.0), (1009, 103.0)])
    def test_field_step_past_the_floats_refused(self, q, alpha):
        msg = f"field step q**({alpha:g}) at q={q} leaves the float range"
        with pytest.raises(WindowOverflowError, match=f"^{re.escape(msg)}$"):
            FieldParams(q, 1, alpha)

    def test_quotient_model_needs_prime(self):
        with pytest.raises(ValueError):
            FieldParams(4, 1, 1.0, FieldModel.QADIC_QUOTIENT)
        FieldParams(5, 1, 1.0, FieldModel.QADIC_QUOTIENT)


class TestMeasures:
    def test_closed_form_values(self):
        assert sphere_measure(0, FieldParams(3, 1, 1.0)) == Fraction(2, 3)
        assert sphere_measure(1, FieldParams(3, 2, 1.0)) == Fraction(8, 81)
        assert ball_measure(0, FieldParams(2, 1, 1.0)) == 1
        assert ball_measure(3, FieldParams(2, 1, 1.0)) == Fraction(1, 8)

    @given(
        st.sampled_from([2, 3, 5]), st.sampled_from([1, 2, 3]), st.integers(-20, 20)
    )
    def test_disjoint_union_identity(self, q, n, k):
        params = FieldParams(q, n, 1.0)
        assert sphere_measure(k, params) + ball_measure(k + 1, params) == ball_measure(
            k, params
        )

    def test_ball_ratio(self):
        params = FieldParams(3, 2, 1.0)
        for k in range(-5, 5):
            assert ball_measure(k + 1, params) / ball_measure(k, params) == qpow(
                3, -2
            )


class TestFloatQpow:
    """The one float-range rule for powers of q."""

    def test_in_range_is_the_plain_power(self):
        for q, e in ((2, 1023), (3, -7), (5, 2.5), (7, -364.25), (2, -1100)):
            assert _float_qpow(q, e) == float(q) ** e  # underflow to 0 is no refusal

    def test_past_the_floats_refused(self):
        msg = r"^crown weight q\*\*\(1024\) at q=2 leaves the float range$"
        with pytest.raises(WindowOverflowError, match=msg):
            _float_qpow(2, 1024)
        msg = r"^eigenvalue q\*\*\(441\.5\) at q=5 leaves the float range$"
        with pytest.raises(WindowOverflowError, match=msg):
            _float_qpow(5, 441.5, "eigenvalue")


class TestSphereCharacterIntegral:
    def test_three_cases(self):
        p31 = FieldParams(3, 1, 1.0)
        p21 = FieldParams(2, 1, 1.0)
        assert sphere_character_integral(0, 0, p31) == Fraction(2, 3)
        assert sphere_character_integral(0, 2, p21) == Fraction(-1, 2)
        assert sphere_character_integral(0, 4, p21) == 0

    def test_rejects_non_qpower(self):
        with pytest.raises(ValueError):
            sphere_character_integral(0, 3, FieldParams(2, 1, 1.0))
        with pytest.raises(ValueError):
            sphere_character_integral(0, Fraction(-1, 2), FieldParams(2, 1, 1.0))


class TestFractionalPart:
    def test_examples(self):
        assert fractional_part(Fraction(1, 2), 2) == Fraction(1, 2)
        assert fractional_part(Fraction(5, 4), 2) == Fraction(1, 4)
        assert fractional_part(Fraction(3), 2) == 0
        assert fractional_part(Fraction(-1, 2), 2) == Fraction(1, 2)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            fractional_part(Fraction(1, 3), 2)

    def test_integer_kernel(self):
        # chi is trivial on integers: the kernel of the character
        for m in range(-4, 5):
            assert character_value(Fraction(m), 3) == 1.0


class TestLattice:
    def test_norm_examples(self):
        # q=2, n=1: lowest nonzero digit at j=-3 gives norm 8
        params = quotient_params(2, 1)
        lat = QuotientLattice(params, 3, 2)
        idx = lat.index_of([2 ** (-3 + 3)])  # digit at position -3
        assert lat.norm(idx) == 8
        assert lat.norm(0) == 0

    def test_norm_max_over_coordinates(self):
        # q=3, n=2, x = (unit, 3*unit): max(1, 1/3) = 1
        params = quotient_params(3, 2)
        lat = QuotientLattice(params, 0, 3)
        idx = lat.index_of([1, 3])
        assert lat.norm(idx) == 1

    def test_group_order(self):
        lat = QuotientLattice(quotient_params(3, 2), 1, 2)
        assert lat.size == 3 ** (2 * 3)
        assert lat.coord_order == 27

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_addition_group_laws(self, a, b, c):
        lat = QuotientLattice(quotient_params(2, 2), 1, 2)
        a, b, c = a % lat.size, b % lat.size, c % lat.size
        assert lat.add(a, b) == lat.add(b, a)
        assert lat.add(lat.add(a, b), c) == lat.add(a, lat.add(b, c))
        assert lat.add(a, lat.neg(a)) == 0

    def test_norms_array_matches_scalar(self):
        lat = QuotientLattice(quotient_params(3, 2), 1, 1)
        arr = lat.norms()
        for idx in range(lat.size):
            assert arr[idx] == float(lat.norm(idx))

    def test_norms_cached_read_only(self):
        lat = QuotientLattice(quotient_params(3, 2), 1, 1)
        arr = lat.norms()
        assert lat.norms() is arr
        k = lat.scales()
        assert np.array_equal(arr, np.where(k == lat.N, 0.0, 3.0 ** -k))
        with pytest.raises(ValueError):
            arr[0] = 1.0


def exact_norm(lat, index):
    """max_i |x_i|_q of the canonical representative, valuation by division."""
    q, best = lat.params.q, Fraction(0)
    for x in lat.coords(index):
        if x == 0:
            continue
        val, num, den = 0, x.numerator, x.denominator
        while num % q == 0:
            num, val = num // q, val + 1
        while den % q == 0:
            den, val = den // q, val - 1
        best = max(best, qpow(q, -val))
    return best


class TestScales:
    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_against_exact_norms(self, spec):
        lat = spec_lattice(spec)
        ks, arr = lat.scales(), lat.norms()
        assert ks.shape == arr.shape == (lat.size,)
        assert not ks.flags.writeable
        for idx in range(lat.size):
            ref = exact_norm(lat, idx)
            assert ks[idx] == (lat.N if ref == 0 else -norm_exponent(lat.params.q, ref))
            assert arr[idx] == float(ref)
            assert lat.norm(idx) == ref
        assert ks[0] == lat.N and np.count_nonzero(ks == lat.N) == 1

    @pytest.mark.parametrize("spec", LATTICE_SPECS, ids=str)
    def test_crown_firsts_are_first_occurrences(self, spec):
        lat = spec_lattice(spec)
        ks, first = np.unique(lat.scales(), return_index=True)
        assert np.array_equal(ks, np.arange(-lat.M, lat.N + 1))
        assert np.array_equal(lat.crown_firsts(), first)
        assert lat.crown_firsts() is lat.crown_firsts()
        assert not lat.crown_firsts().flags.writeable

    def test_index_arithmetic_broadcasts(self):
        lat = spec_lattice((3, 2, 1, 2))
        idx = np.arange(lat.size)
        assert np.array_equal(lat.add(5, idx), [lat.add(5, int(i)) for i in idx])
        assert np.array_equal(lat.sub(idx, 7), [lat.sub(int(i), 7) for i in idx])
        assert np.array_equal(lat.index_of(lat.coord_values(idx)), idx)


class TestCharacter:
    @settings(max_examples=40)
    @given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
    def test_homomorphism(self, i, j, k):
        lat = QuotientLattice(quotient_params(2, 1), 4, 5)
        i, j, k = i % lat.size, j % lat.size, k % lat.size
        lhs = lat.pair_character(lat.add(i, j), k)
        rhs = lat.pair_character(i, k) * lat.pair_character(j, k)
        assert abs(lhs - rhs) < 1e-12

    def test_symmetry(self):
        lat = QuotientLattice(quotient_params(3, 2), 2, 2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            i, j = rng.integers(0, lat.size, size=2)
            assert abs(lat.pair_character(int(i), int(j)) - lat.pair_character(int(j), int(i))) < 1e-14

    def test_minus_half_is_minus_one(self):
        assert abs(character_value(Fraction(-1, 2), 2) - (-1.0)) < 1e-15

    def test_orthogonality(self):
        """Coset-measure-weighted character sums vanish off the trivial one."""
        lat = QuotientLattice(quotient_params(2, 1), 2, 2)
        mu = float(lat.coset_measure)
        for x in range(lat.size):
            table = np.array([lat.pair_character(x, y) for y in range(lat.size)])
            total = table.sum() * mu
            if np.max(np.abs(table - 1.0)) < 1e-14:  # chi_x constant
                assert abs(total - lat.size * mu) < 1e-12
            else:
                assert abs(total) < 1e-12


class TestBruteSphereIntegral:
    def test_x_zero_is_sphere_measure(self):
        params = quotient_params(3, 1)
        lat = QuotientLattice(params, 2, 2)
        for k in range(-2, 2):
            v = brute_sphere_character_integral(k, (Fraction(0),), lat)
            assert abs(v - float(sphere_measure(k, params))) < 1e-13

    def test_refinement_invariance(self):
        """Doubling the resolution leaves the exact coset sum unchanged."""
        params = quotient_params(2, 1)
        x = (Fraction(1, 2),)
        a = brute_sphere_character_integral(0, x, QuotientLattice(params, 1, 2))
        b = brute_sphere_character_integral(0, x, QuotientLattice(params, 1, 4))
        assert abs(a - b) < 1e-13

    def test_window_too_small_detected(self):
        params = quotient_params(2, 1)
        lat = QuotientLattice(params, 1, 1)
        with pytest.raises(LatticeWindowError):
            # ||x|| = 4 > q**N: chi(x . y) is not constant on cosets of G_N
            brute_sphere_character_integral(0, (Fraction(1, 4),), lat)

    def test_matches_closed_form_with_q5(self):
        params = quotient_params(5, 1)
        for k in range(-2, 3):
            for e in (None, k, k + 1, k + 2):
                lat = QuotientLattice(
                    params, max(0, -k), max(k + 1, 0 if e is None else e, 0)
                )
                x = (Fraction(0),) if e is None else (qpow(5, -e),)
                norm_x = Fraction(0) if e is None else qpow(5, e)
                brute = brute_sphere_character_integral(k, x, lat)
                closed = float(sphere_character_integral(k, norm_x, params))
                assert abs(brute - closed) < 1e-12


def fraction_sphere_sum(k, x_coords, lattice):
    """The brute sphere oracle's coset loop in exact Fraction arithmetic, one
    dot product and one ``character_value`` per coset: the reference the
    integer loop must match bit for bit."""
    params = lattice.params
    if k > lattice.N - 1:
        raise LatticeWindowError(f"sphere at scale {k} is not resolved by N={lattice.N}")
    check_local_constancy(lattice, x_coords)

    def ball_sum(scale):
        per_coord = [list(lattice.ball_coord_values(scale))] * params.n
        count = math.prod(len(vals) for vals in per_coord)
        if count > _ELEMENT_CAP:
            raise LatticeWindowError(
                f"ball enumeration of {count} cosets exceeds cap {_ELEMENT_CAP}"
            )
        scale_frac = qpow(params.q, -lattice.M)
        total = 0.0 + 0.0j
        for combo in itertools.product(*per_coord):
            dot = sum(
                (Fraction(xi) * (u * scale_frac) for xi, u in zip(x_coords, combo)),
                Fraction(0),
            )
            total += character_value(dot, params.q)
        return total

    return (ball_sum(k) - ball_sum(k + 1)) * float(lattice.coset_measure)


def _outcome(oracle, k, x, lat):
    """The result's real and imaginary bits, or the error's type and message."""
    try:
        v = oracle(k, x, lat)
    except (LatticeWindowError, ValueError) as exc:
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


def _brute_grid():
    """Seeded cases on q in {2, 3, 5, 7} and n in {1, 2}: every window with
    M, N <= 2 and at most 4096 cosets, every scale from one past the outer
    ball to the unresolved sphere k = N, and points whose coordinates have
    q-power denominators up to q**(N+1) (past N the character is not
    coset-constant) and numerators of either sign; scales near N on a window
    of q**60 per coordinate, with numerators up to 2**62; then a non-q-power
    denominator, a point shorter than n, and the cap."""
    rng = np.random.default_rng(2929)
    for q in (2, 3, 5, 7):
        for n in (1, 2):
            params = quotient_params(q, n)
            for M, N in itertools.product(range(3), repeat=2):
                if q ** ((M + N) * n) > 4096:
                    continue
                lat = QuotientLattice(params, M, N)
                for k in range(-M - 1, N + 1):
                    for _ in range(3):
                        x = tuple(
                            Fraction(int(rng.integers(-q**4, q**4 + 1)),
                                     q ** int(rng.integers(0, N + 2)))
                            for _ in range(n)
                        )
                        yield k, x, lat
        # windows past 2**53 cosets a coordinate, where S and L are no exact floats
        lat = QuotientLattice(quotient_params(q, 2), 30, 30)
        for k in (28, 29):
            for _ in range(4):
                x = tuple(Fraction(int(rng.integers(-2**62, 2**62)), q**30) for _ in range(2))
                yield k, x, lat
    lat = QuotientLattice(quotient_params(3, 2), 1, 2)
    yield 0, (Fraction(-5, 9), Fraction(1, 6)), lat  # 1/6: no 3-power denominator
    yield 0, (Fraction(-7, 9),), lat  # the second coordinate pairs with 0
    yield 0, (Fraction(0), Fraction(0)), QuotientLattice(quotient_params(2, 2), 0, 11)  # 4**11 cosets


def test_brute_sphere_sum_matches_fraction_loop_bitwise():
    outcomes = [
        (_outcome(brute_sphere_character_integral, k, x, lat),
         _outcome(fraction_sphere_sum, k, x, lat))
        for k, x, lat in _brute_grid()
    ]
    assert all(new == ref for new, ref in outcomes)
    # every path is exercised: values, the unresolved sphere, a ball outside
    # the window, a character not coset-constant, no q-power, the cap
    messages = " | ".join(str(new[1]) for new, _ in outcomes if isinstance(new[0], type))
    for part in ("is not resolved by", "does not fit in", "is not constant on",
                 "q-power denominator", "exceeds cap"):
        assert part in messages
    assert sum(not isinstance(new[0], type) for new, _ in outcomes) > 200


def test_character_free_function():
    x = (Fraction(1, 4), Fraction(1))
    y = (Fraction(1), Fraction(1, 2))
    v = character(x, y, 2)
    # x . y = 1/4 + 1/2 -> fractional part 3/4
    assert abs(v - character_value(Fraction(3, 4), 2)) < 1e-15

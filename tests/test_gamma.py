import cmath
import math

import numpy as np
import pytest

from qharm import gamma
from qharm.errors import PoleError, ToleranceError, WindowOverflowError
from qharm.field import FieldParams
from qharm.gamma import gamma_qn, gamma_via_integral, reflection_defect

P21 = FieldParams(2, 1, 1.0)
P32 = FieldParams(3, 2, 1.0)


def test_hand_value():
    assert abs(gamma_qn(2, P21) - (-4.0 / 3.0)) < 1e-15


def test_zero_at_n():
    for params in (P21, P32, FieldParams(5, 3, 1.0)):
        assert abs(gamma_qn(params.n, params)) < 1e-15


def test_zero_lattice():
    """Zeros sit on n + (2 pi i / ln q) Z."""
    for m in (-2, 1, 3):
        z = P32.n + 2j * math.pi * m / math.log(3)
        assert abs(gamma_qn(z, P32)) < 1e-12


def test_pole_lattice():
    with pytest.raises(PoleError):
        gamma_qn(0, P21)
    with pytest.raises(PoleError):
        gamma_qn(1e-10, P21)
    with pytest.raises(PoleError):
        gamma_qn(2j * math.pi / math.log(2), P21)
    with pytest.raises(PoleError):
        gamma_qn(complex(0, -4 * math.pi / math.log(3)), P32)


def test_periodicity():
    period = 2j * math.pi / math.log(2)
    for z in (0.7 + 0.3j, 2.5 - 1.0j):
        assert abs(gamma_qn(z + period, P21) - gamma_qn(z, P21)) < 1e-12


def test_reflection_examples():
    assert reflection_defect(0.5 + 0.3j, P32) <= 1e-12
    assert reflection_defect(P32.n / 2.0, P32) <= 1e-12


def test_reflection_grid():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(0.05, P32.n - 0.05), rng.uniform(-1.0, 1.0))
        assert reflection_defect(z, P32) <= 1e-12


def test_reflection_propagates_pole():
    with pytest.raises(PoleError):
        reflection_defect(P21.n, P21)  # n - z = 0 is a pole


def test_integral_oracle_hand_value():
    assert abs(gamma_via_integral(2, P21, tol=1e-11) - (-4.0 / 3.0)) < 1e-10


def test_integral_oracle_at_n_plus_one():
    for params in (P21, P32):
        z = params.n + 1
        a = gamma_via_integral(z, params, tol=1e-11)
        assert abs(a - gamma_qn(z, params)) < 1e-10


def test_integral_oracle_grid():
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            params = FieldParams(q, n, 1.0)
            for re in (0.25, 1.0, 4.0):
                z = complex(re, 0.3)
                assert abs(
                    gamma_via_integral(z, params, tol=1e-11) - gamma_qn(z, params)
                ) <= 1e-9


def test_integral_oracle_budget_error_near_axis(monkeypatch):
    """Re z -> 0+ slows the crown sum down past any fixed budget."""
    monkeypatch.setattr(gamma, "_MAX_CROWNS", 1000)
    with pytest.raises(ToleranceError, match="within 1000 crowns"):
        gamma_via_integral(1e-7 + 0.5j, P21, tol=1e-12)
    with pytest.raises(ValueError):
        gamma_via_integral(-1.0, P21)


def test_near_pole_query_allowed_with_smaller_eps(monkeypatch):
    monkeypatch.setattr(gamma, "_POLE_EPS", 1e-9)
    v = gamma_qn(1e-6, P21)
    assert cmath.isfinite(v)


@pytest.mark.parametrize(
    "q, z", [(2, -2000), (2, 2000), (2, 1e308), (5, -1e308), (5, 1.7e308), (3, 700 + 1j)]
)
def test_power_past_the_floats_refused(q, z):
    # z ln q past ~709.8 overflows q**(z-n) or q**(-z); at q = 5, z = 1.7e308 the
    # argument z ln q is itself infinite, which exp returns as inf without raising
    with pytest.raises(WindowOverflowError, match=rf"^a power of q={q} in Gamma_q\^\(1\)"):
        gamma_qn(z, FieldParams(q, 1, 1.0))


@pytest.mark.parametrize(
    "z", [complex(math.nan, 0), complex(1, math.inf), complex(1, math.nan), math.inf],
    ids=["nan", "inf-im", "nan-im", "inf"],
)
def test_nonfinite_argument_refused_before_any_work(z, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("Gamma evaluated before z was checked")

    for name in ("_pole_distance", "sphere_character_integral", "_crown_tail"):
        monkeypatch.setattr(gamma, name, no_work)
    for route in (gamma_qn, gamma_via_integral, reflection_defect):
        with pytest.raises(ValueError, match=r"^Gamma_q\^\(n\) argument must be finite, got "):
            route(z, P21)


@pytest.mark.parametrize("z", [5e-324, 1e-300 + 1j, 1e-9])
def test_integral_oracle_budget_refused_before_any_crown(z, monkeypatch):
    """q**(-Re z) rounds to 1 (it divided by zero) or the tail bound misses
    tol within the crown budget: ToleranceError before any crown is summed."""
    def no_work(*args, **kwargs):
        raise AssertionError("a crown was summed")

    monkeypatch.setattr(gamma, "sphere_character_integral", no_work)
    with pytest.raises(ToleranceError, match=r"^gamma integral does not reach tol=1e-12 within "):
        gamma_via_integral(z, P21)

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

    for name in ("_pole_distance", "_crown_measure", "_crown_tail"):
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

    monkeypatch.setattr(gamma, "_crown_measure", no_work)
    with pytest.raises(ToleranceError, match=r"^gamma integral does not reach tol=1e-12 within "):
        gamma_via_integral(z, P21)


@pytest.mark.parametrize(
    "z, params, m",
    [(0.05, FieldParams(2, 3, 1.0), -890), (0.01, FieldParams(2, 2, 1.0), -4662),
     (1100, P21, 1), (1e308, FieldParams(7, 1, 1.0), 1)],
    ids=["last-n3", "last-n2", "first", "first-inf"],
)
def test_integral_crown_power_past_the_floats_refused_before_any_crown(z, params, m, monkeypatch):
    """With n >= 2 and a small Re z < n the last crown's power q**(m (z-n))
    overflows, past Re z of about 1025 at q = 2 the first crown's: each was a
    bare OverflowError, now WindowOverflowError before any crown is summed.
    At q = 7 and Re z = 1e308 the exponent itself is infinite, which exp
    returns without raising: the oracle returned -inf+nanj."""
    def no_work(*args, **kwargs):
        raise AssertionError("a crown was summed")

    monkeypatch.setattr(gamma, "_crown_measure", no_work)
    match = rf"^crown power q\*\*\(m \(z-n\)\) at m={m} of the gamma integral at q={params.q}, z="
    with pytest.raises(WindowOverflowError, match=match):
        gamma_via_integral(z, params)


def test_integral_near_the_crown_power_limit_agrees():
    """Just inside the float range the oracle sums every crown and still
    agrees with the closed form; at (2, 3, 1.0) and tol 1e-11 the last
    crown's power leaves it below Re z = 0.1129."""
    params = FieldParams(2, 3, 1.0)
    for z in (0.114, 0.114 + 0.5j):
        assert abs(gamma_via_integral(z, params, tol=1e-11) - gamma_qn(z, params)) < 1e-9
    with pytest.raises(WindowOverflowError):
        gamma_via_integral(0.1128, params, tol=1e-11)
    assert cmath.isfinite(gamma_via_integral(1020, P21))


# (z, field) in call order: fields sharing (q, n) but not alpha, and fields
# differing only in n, interleaved with the oracle's typed errors
MEMO_FIELDS = [P21, FieldParams(2, 1, 0.5), FieldParams(2, 2, 1.0), FieldParams(2, 3, 2.0),
               FieldParams(3, 1, 1.0), P32, FieldParams(3, 2, 0.25), FieldParams(5, 2, 1.0)]
MEMO_CALLS = [
    call
    for z in (0.25, 1.5 + 0.4j, 4.0 - 2.0j)
    for params in MEMO_FIELDS
    for call in ((z, params), (1e-9, params), (-1.0, params))
] + [(0.05, FieldParams(2, 3, 1.0)), (0.3, P21), (1100, P21), (0.3 + 1j, P32)]


def _integral_outcome(z, params):
    """The oracle's bits, or its error's type and message."""
    try:
        v = gamma_via_integral(z, params, tol=1e-11)
    except (ToleranceError, WindowOverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


def test_crown_measure_memo_warm_equals_cold():
    """A call on a warm crown-measure memo returns the bytes, or raises the
    error, of the same call on an empty one; the cold values agree with the
    closed form."""
    cold = []
    for z, params in MEMO_CALLS:
        gamma._crown_measure.cache_clear()
        cold.append(_integral_outcome(z, params))
    for (z, params), outcome in zip(MEMO_CALLS, cold):
        if not isinstance(outcome[0], type):
            value = complex(float.fromhex(outcome[0]), float.fromhex(outcome[1]))
            assert abs(value - gamma_qn(z, params)) < 1e-9
    gamma._crown_measure.cache_clear()
    for _ in range(2):
        assert [_integral_outcome(z, params) for z, params in MEMO_CALLS] == cold

import numpy as np
import pytest
from hypothesis import strategies as st

from qharm.errors import WindowOverflowError
from qharm.field import FieldModel, FieldParams, QuotientLattice
from qharm.radial import RadialProfile


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


def largest_alpha(q: int) -> float:
    """The largest alpha FieldParams(q, n, alpha) accepts, by bisection on the floats."""
    lo, hi = 1.0, 2048.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        try:
            FieldParams(q, 1, mid)
            lo = mid
        except WindowOverflowError:
            hi = mid
    return lo


def make_profile(rng, params, kmin, kmax, tail=0.0):
    m = kmax - kmin + 1
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return RadialProfile(params, kmin, kmax, vals, tail=tail)


# hypothesis strategies ---------------------------------------------------------

field_params_st = st.builds(
    FieldParams,
    q=st.sampled_from([2, 3, 5]),
    n=st.sampled_from([1, 2]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
)

complex_st = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)


@st.composite
def profile_st(draw, max_window=60, with_tail=True):
    params = draw(field_params_st)
    kmin = draw(st.integers(-30, 29))
    kmax = draw(st.integers(kmin, min(kmin + max_window - 1, 30)))
    coeffs = draw(
        st.lists(
            complex_st, min_size=kmax - kmin + 1, max_size=kmax - kmin + 1
        )
    )
    tail = draw(complex_st) if with_tail and draw(st.booleans()) else 0.0
    return RadialProfile(params, kmin, kmax, np.array(coeffs), tail=tail)


def quotient_params(q=2, n=1, alpha=1.0):
    return FieldParams(q, n, alpha, FieldModel.QADIC_QUOTIENT)


# (q, n, M, N): the benchmark's twelve lattice shapes (64 to 6561 cosets) and
# the one-coset lattices M = N = 0
LATTICE_SPECS = (
    (2, 1, 3, 3), (2, 1, 4, 5), (2, 1, 6, 6),
    (2, 2, 1, 2), (2, 2, 2, 2), (2, 2, 3, 3),
    (3, 1, 2, 2), (3, 1, 3, 3), (3, 1, 4, 4),
    (3, 2, 1, 1), (3, 2, 1, 2), (3, 2, 2, 2),
    (2, 1, 0, 0), (3, 2, 0, 0),
)


def spec_lattice(spec, alpha=1.0):
    q, n, M, N = spec
    return QuotientLattice(quotient_params(q, n, alpha), M, N)

"""The typed-error contract over the heat-kernel, Gamma and L^p-norm routes.

Every call returns a finite value, and a finite bound where it returns one,
or raises a class from ``errors.py`` or a ValueError; with warnings as
errors, so a NaN or overflow that numpy only warns about fails too.  The
strategies draw finite floats across the whole range, every accepted
``FieldParams`` with q in 2..7, n in 1..3 and alpha in [1e-3, 1e3], and crown
windows anywhere in [-1200, 1200] (for the norms [-300, 300], with |c| from
1e-200 to 1e200).  Each reproducer found before is an explicit example.
"""

import cmath
import math
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qharm import errors, gamma, kernel
from qharm.field import FieldParams
from qharm.kernel import KernelEvalConfig
from qharm.radial import RadialProfile, lp_norm

TYPED = (
    errors.PoleError,
    errors.CancellationError,
    errors.ToleranceError,
    errors.LatticeWindowError,
    errors.WindowOverflowError,
    errors.QuadratureError,
    ValueError,
)
# derandomized, so Tier-1 stays deterministic; the count keeps the file near 1 s
CONTRACT = settings(max_examples=250, deadline=None, derandomize=True, database=None)

EDGES = [5e-324, 1e-300, -1e-300, 1e-3, 1.0, 1e3, 1.7e308, -1.7e308, 0.0]
finite = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
times = st.builds(complex, finite, finite)


@st.composite
def fields(draw):
    q = draw(st.integers(2, 7))
    n = draw(st.integers(1, 3))
    alpha = draw(st.one_of(st.sampled_from([1e-3, 0.05, 0.5, 1.0, 2.0, 10.0, 1e3]),
                           st.floats(1e-3, 1e3)))
    try:
        return FieldParams(q, n, alpha)
    except errors.WindowOverflowError:  # q**alpha is no float: not a field
        assume(False)


configs = st.builds(
    KernelEvalConfig,
    tail_budget=st.sampled_from([8, 192, 256]),
    tol=st.sampled_from([1e-15, 1e-13, 1e-6]),
)

KERNEL_ROUTES = {
    "exp_form": lambda z, k, w, p, cfg: kernel.kernel_exp_form(z, k, p, cfg),
    "crown_sum": lambda z, k, w, p, cfg: kernel.kernel_crown_sum(z, k, p, cfg),
    "series": lambda z, k, w, p, cfg: kernel.kernel_series(z, k, p, cfg),
    "at_zero": lambda z, k, w, p, cfg: kernel.kernel_at_zero(z, p, cfg),
    "ball_integral": lambda z, k, w, p, cfg: kernel.kernel_ball_integral(z, k, p, cfg),
    "profile": lambda z, k, w, p, cfg: kernel.kernel_profile(z, (k, k + w), p, cfg),
    "profile_crown_sum": lambda z, k, w, p, cfg: kernel.kernel_profile(
        z, (k, k + w), p, cfg, evaluator=kernel.kernel_crown_sum
    ),
    "bound_ratios": lambda z, k, w, p, cfg: kernel.bound_ratios(z, (k, k + w), p, cfg),
    "bound_ratio": lambda z, k, w, p, cfg: kernel.bound_ratio(z, k, p, cfg),
    "l1_norm": lambda z, k, w, p, cfg: kernel.kernel_l1_norm(z, p, cfg),
    "mass_window": lambda z, k, w, p, cfg: kernel.default_mass_window(z, p),
}


def _finite(v) -> bool:
    if isinstance(v, RadialProfile):
        return bool(np.isfinite(v.coeffs).all()) and cmath.isfinite(v.tail)
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all())
    if isinstance(v, tuple):  # a value with its bound, L1 norms, a window
        return all(_finite(x) for x in v)
    return cmath.isfinite(v)


def _holds(call) -> None:
    """The contract: a finite result or a typed error, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except TYPED:
            return
    assert _finite(result), result


@CONTRACT
@given(
    route=st.sampled_from(sorted(KERNEL_ROUTES)),
    z=times,
    k=st.integers(-1200, 1200),
    width=st.integers(0, 30),
    params=fields(),
    cfg=configs,
)
@example("at_zero", 1e-300 - 0.0023j, 0, 0, FieldParams(2, 2, 117.72684532347425),
         kernel.DEFAULT_CFG)
@example("l1_norm", 1e-300 + 0.1186j, 0, 0, FieldParams(4, 3, 124.91498888497475),
         kernel.DEFAULT_CFG)
@example("exp_form", 5e-324 + 0.0206j, -6, 0, FieldParams(3, 3, 17.915), kernel.DEFAULT_CFG)
@example("crown_sum", 1.7e308 + 1.7e308j, -268, 0, FieldParams(7, 2, 0.0013561845965840875),
         kernel.DEFAULT_CFG)
def test_kernel_routes_finite_or_typed(route, z, k, width, params, cfg):
    _holds(lambda: KERNEL_ROUTES[route](z, k, width, params, cfg))


GAMMA_ROUTES = {
    "closed_form": gamma.gamma_qn,
    "reflection": gamma.reflection_defect,
    # Re z is bounded below: near Re z = 1e-3 the oracle sums up to its crown
    # budget in exact arithmetic, which a property test cannot afford
    "integral": gamma.gamma_via_integral,
}


@CONTRACT
@given(
    route=st.sampled_from(sorted(GAMMA_ROUTES)),
    z=times,
    low=st.floats(0.05, 1.7e308),
    params=fields(),
)
@example("integral", 0.05 + 0j, 0.05, FieldParams(2, 3, 1.0))
@example("integral", 0.01 + 0j, 0.01, FieldParams(2, 2, 1.0))
@example("integral", 1100 + 0j, 1100.0, FieldParams(2, 1, 1.0))
@example("integral", 1e308 + 0j, 1e308, FieldParams(7, 1, 1.0))
@example("integral", 5e-324 + 0j, 5e-324, FieldParams(2, 1, 1.0))
@example("closed_form", complex(1, 1.7e308), 0.05, FieldParams(7, 1, 1.0))
def test_gamma_routes_finite_or_typed(route, z, low, params):
    if route == "integral" and not z.real >= low:
        z = complex(low, z.imag)
    _holds(lambda: GAMMA_ROUTES[route](z, params))


@CONTRACT
@given(
    p=st.sampled_from([1.0, 2.0, 40.0, 300.0, math.inf]),
    kmin=st.integers(-300, 300),
    exponents=st.lists(st.floats(-200, 200), min_size=1, max_size=31),
    phase=st.floats(0, 7),
    tail=st.one_of(st.just(None), st.floats(-200, 200)),
    params=fields(),
)
@example(40.0, 0, [10.0] * 7, 0.0, None, FieldParams(2, 1, 1.0))  # returned inf
@example(40.0, 0, [-10.0] * 7, 0.0, None, FieldParams(2, 1, 1.0))  # returned 0.0
@example(2.0, 0, [0.0] * 7, 0.0, 200.0, FieldParams(2, 1, 1.0))  # raised OverflowError
def test_lp_norm_finite_or_typed(p, kmin, exponents, phase, tail, params):
    """|c| = 10**exponents on crowns kmin.., at most to 300, and an inner
    tail 10**tail or none."""
    kmax = min(kmin + len(exponents) - 1, 300)
    coeffs = 10.0 ** np.array(exponents[: kmax - kmin + 1]) * cmath.exp(1j * phase)
    f = RadialProfile(params, kmin, kmax, coeffs, 0.0 if tail is None else 10.0**tail)
    _holds(lambda: lp_norm(f, p))

"""Every power of q past the float range is refused with a typed error, and
nothing inside the range moves.

The repro cases each raised a bare OverflowError or ZeroDivisionError, or
returned NaN, before the routes shared one checked power of q."""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest

from qharm import errors, gamma, kernel, radial, taibleson
from qharm.errors import CancellationError, ToleranceError, WindowOverflowError
from qharm.field import FieldParams
from qharm.radial import RadialProfile

from conftest import largest_alpha

P = FieldParams(2, 1, 1.0)
Z = 1 + 0.5j
TYPED = (
    errors.PoleError,
    errors.CancellationError,
    errors.ToleranceError,
    errors.LatticeWindowError,
    errors.WindowOverflowError,
    errors.QuadratureError,
)


REPROS = {
    "ball_integral_out": (
        lambda: kernel.kernel_ball_integral(Z, -1100, P),
        WindowOverflowError, r"^crown weight q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "ball_integral_in": (
        lambda: kernel.kernel_ball_integral(Z, 1100, P),
        WindowOverflowError, r"^eigenvalue q\*\*\(1101\) at q=2 leaves the float range$",
    ),
    "crown_sum_in": (
        lambda: kernel.kernel_crown_sum(Z, 1100, P),
        WindowOverflowError, r"^eigenvalue q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "crown_sum_out": (
        lambda: kernel.kernel_crown_sum(Z, -1100, P),
        WindowOverflowError, r"^norm q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "series_out": (
        lambda: kernel.kernel_series(Z, -1100, P),
        WindowOverflowError, r"^norm q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "series_in": (
        lambda: kernel.kernel_series(Z, 1100, P),
        CancellationError, r"^\|z\| \* \|\|x\|\|\*\*\(-alpha\) = inf exceeds the series guard",
    ),
    "series_in_alpha2": (
        lambda: kernel.kernel_series(Z, 600, FieldParams(2, 1, 2.0)),
        CancellationError, r"^\|z\| \* \|\|x\|\|\*\*\(-alpha\) = inf exceeds the series guard",
    ),
    "series_small_alpha": (
        # inside the guard, but ||x|| = 2**-1100 underflows to 0
        lambda: kernel.kernel_series(1e-3, 1100, FieldParams(2, 1, 0.01)),
        WindowOverflowError, r"^crown weight q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "series_gamma_q2": (
        # the tail test cannot stop before q**(k alpha) of Gamma_q^(n) overflows
        lambda: kernel.kernel_series(Z, 0, FieldParams(2, 1, 10.0)),
        ToleranceError, r"^kernel series term k=103, with Gamma_q\^\(n\)\(1031\), leaves",
    ),
    "series_gamma_q7": (
        lambda: kernel.kernel_series(Z, 0, FieldParams(7, 2, 3.0)),
        ToleranceError, r"^kernel series term k=122, with Gamma_q\^\(n\)\(368\), leaves",
    ),
    "series_gamma_budget": (
        lambda: kernel.kernel_series(
            0.2, 0, FieldParams(2, 1, 10.0), kernel.KernelEvalConfig(tail_budget=1000)
        ),
        ToleranceError, r"^kernel series term k=103, with Gamma_q\^\(n\)\(1031\), leaves",
    ),
    "series_term": (
        # Gamma_q^(n)(3) is finite; the term times ||x||**(-n) = 2**1020 is not
        lambda: kernel.kernel_series(7 * 2.0**-1020, 1020, P),
        ToleranceError, r"^kernel series term k=2, with Gamma_q\^\(n\)\(3\), leaves",
    ),
    "levy_out": (
        lambda: taibleson.levy_khinchin_check(-1100, P),
        WindowOverflowError, r"^eigenvalue q\*\*\(1100\) at q=2 leaves the float range$",
    ),
    "convolve": (
        lambda: radial.convolve(
            *[RadialProfile(FieldParams(2, 1, 0.5), -600, 600, np.ones(1201))] * 2
        ),
        WindowOverflowError, r"^convolution product on Fourier crowns \[-601, 600\] leaves",
    ),
    "l1_norm": (
        lambda: kernel.kernel_l1_norm(1e-300, FieldParams(3, 2, 2.0)),
        WindowOverflowError, r"^mass window K_\{Re z\}\(0\) / tol = .* leaves the float range$",
    ),
    "mass_window": (
        lambda: kernel.default_mass_window(1e-300, FieldParams(3, 2, 2.0)),
        WindowOverflowError, r"^mass window K_\{Re z\}\(0\) / tol = .* leaves the float range$",
    ),
    # w (q**alpha - 1) overflowed at the first term: NaN values with finite bounds
    "at_zero_exponent": (
        lambda: kernel.kernel_at_zero(1e-300 - 0.0023j, FieldParams(2, 2, 117.72684532347425)),
        WindowOverflowError, r"^exp-form exponent \|z\| lam_j \(q\*\*alpha - 1\) at z=.*, j=-8 ",
    ),
    "l1_norm_exponent": (
        lambda: kernel.kernel_l1_norm(1e-300 + 0.1186j, FieldParams(4, 3, 124.91498888497475)),
        WindowOverflowError, r"^exp-form exponent \|z\| lam_j \(q\*\*alpha - 1\) at z=.*, j=-4 ",
    ),
    "exp_form_subnormal_time": (
        lambda: kernel.kernel_exp_form(5e-324 + 0.0206j, -6, FieldParams(3, 3, 17.915)),
        WindowOverflowError, r"^exp-form time scale at Re z = 5e-324 underflows to 0$",
    ),
    "crown_sum_abs_z": (
        # abs(z) itself raised OverflowError inside the crown sum's range guard
        lambda: kernel.kernel_crown_sum(
            1.7e308 + 1.7e308j, -268, FieldParams(7, 2, 0.0013561845965840875)
        ),
        WindowOverflowError, r"^\|z\| at z=\(1\.7e\+308\+1\.7e\+308j\) leaves the float range$",
    ),
}


@pytest.mark.parametrize("case", list(REPROS))
def test_repro_refused(case):
    call, exc, msg = REPROS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=msg):
            call()


def test_exp_form_scale_past_the_floats_finite():
    """At Re z = 1e-306 the inner-scale eigenvalue n / (alpha Re z) is no
    float; its bound stands in, and the values agree with the crown sum."""
    params = FieldParams(2, 3, 0.001)
    for k in (-6, 0, 6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = kernel.kernel_exp_form(1e-306 + 0.02j, k, params)
        b = kernel.kernel_crown_sum(1e-306 + 0.02j, k, params)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def _finite(v) -> bool:
    if isinstance(v, RadialProfile):
        return bool(np.isfinite(v.coeffs).all()) and cmath.isfinite(v.tail)
    if isinstance(v, tuple):
        return all(_finite(x) for x in v)
    return cmath.isfinite(v)


EVALUATORS = {
    "exp_form": lambda k, p: kernel.kernel_exp_form(Z, k, p),
    "crown_sum": lambda k, p: kernel.kernel_crown_sum(Z, k, p),
    "series": lambda k, p: kernel.kernel_series(Z, k, p),
    "ball_integral": lambda k, p: kernel.kernel_ball_integral(Z, k, p),
    "bound_ratio": lambda k, p: kernel.bound_ratio(Z, k, p),
    "profile": lambda k, p: kernel.kernel_profile(Z, (k, k + 2), p),
    "levy": lambda k, p: taibleson.levy_khinchin_check(k, p),
    "levy_truncated": lambda k, p: taibleson.levy_khinchin_check(k, p, "truncated"),
    "hypersingular": lambda k, p: taibleson.taibleson_hypersingular(
        RadialProfile.sphere_indicator(p, k), k
    ),
    "taibleson_fourier": lambda k, p: taibleson.taibleson_fourier(
        RadialProfile.ball_indicator(p, k)
    ),
    "fourier": lambda k, p: radial.radial_fourier(RadialProfile.ball_indicator(p, k)),
    "convolve": lambda k, p: radial.convolve(*[RadialProfile.ball_indicator(p, k)] * 2),
}


@pytest.mark.parametrize("params", [P, FieldParams(3, 2, 0.5), FieldParams(2, 1, 2.0)],
                         ids=lambda p: f"q{p.q}n{p.n}a{p.alpha}")
@pytest.mark.parametrize("name", list(EVALUATORS))
def test_every_scale_finite_or_typed(name, params):
    for k in (-2000, -1100, -600, 600, 1100, 2000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = EVALUATORS[name](k, params)
            except TYPED:
                continue
        assert _finite(value), (name, k)


# the routes that raised a bare OverflowError at alpha = 1100, q = 2, when
# FieldParams took every positive alpha
EDGE_ROUTES = {
    "exp_form": lambda z, k, p: kernel.kernel_exp_form(z, k, p),
    "crown_sum": lambda z, k, p: kernel.kernel_crown_sum(z, k, p),
    "series": lambda z, k, p: kernel.kernel_series(z, k, p),
    "at_zero": lambda z, k, p: kernel.kernel_at_zero(z, p),
    "ball_integral": lambda z, k, p: kernel.kernel_ball_integral(z, k, p),
    "l1_norm": lambda z, k, p: kernel.kernel_l1_norm(z, p),
    "bound_ratio": lambda z, k, p: kernel.bound_ratio(z, k, p),
    "hypersingular": lambda z, k, p: taibleson.taibleson_hypersingular(
        RadialProfile.ball_indicator(p, 0), k
    ),
    "levy": lambda z, k, p: taibleson.levy_khinchin_check(k, p),
    "gamma": lambda z, k, p: gamma.gamma_qn(-p.alpha, p),
}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 1009])
def test_largest_alpha_finite_or_typed(q):
    alpha = largest_alpha(q)
    with pytest.raises(WindowOverflowError, match=r"^field step q\*\*\("):
        FieldParams(q, 1, math.nextafter(alpha, math.inf))
    for n in (1, 3):
        params = FieldParams(q, n, alpha)
        for name, route in EDGE_ROUTES.items():
            for z in (1.0, 1 + 0.5j, 0.1 - 3j):
                for k in (-1, 0, 1):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            value = route(z, k, params)
                        except TYPED:
                            continue
                    assert _finite(value), (name, n, z, k)


def _digest(params: FieldParams) -> str:
    """SHA-256 of every evaluator that forms a power of q, on a seeded
    in-range grid: values, bounds and the text of each typed refusal."""
    rng = np.random.default_rng(20261019)
    digest = hashlib.sha256()

    def put(call):
        try:
            res = call()
        except TYPED as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            return
        if isinstance(res, RadialProfile):
            digest.update(np.array([res.kmin, res.kmax]).tobytes())
            res = (*res.coeffs, res.tail)
        digest.update(np.array(res, dtype=complex).tobytes())

    zs = rng.uniform(0.05, 3.0, 3) + 1j * rng.uniform(-3.0, 3.0, 3)
    for k in range(-6, 7):
        for z in zs:
            for ev in (kernel.kernel_exp_form, kernel.kernel_crown_sum,
                       kernel.kernel_series, kernel.kernel_ball_integral):
                put(lambda: ev(z, k, params))
        put(lambda: taibleson.levy_khinchin_check(k, params))
        put(lambda: taibleson.levy_khinchin_check(k, params, "truncated"))
    for z in zs[:2]:
        put(lambda: kernel.kernel_l1_norm(z, params))
        put(lambda: kernel.default_mass_window(z, params))
        put(lambda: (gamma.gamma_qn(z, params), gamma.reflection_defect(z, params),
                     gamma.gamma_via_integral(z, params)))
    for tail in (0.0, 0.5 - 0.25j):
        vals = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        g, h = (RadialProfile(params, -3, 4, v, tail=tail) for v in vals)
        for k_x in [*range(-6, 7), None]:
            put(lambda: taibleson.taibleson_hypersingular(g, k_x))
        put(lambda: radial.convolve(g, h))
        put(lambda: radial.radial_fourier(g))
        put(lambda: taibleson.taibleson_fourier(g))
    return digest.hexdigest()


# taken before the routes shared one checked power of q
PINNED = {
    FieldParams(2, 1, 1.0): "9583652223fb62097e861a7d9e0944bc3291cabacb5cbb91ce1158eaf5c48435",
    FieldParams(3, 2, 0.5): "76d86bea702c3ec1ff42361677f964d9a4343b431eda584629849f514425ae72",
    FieldParams(5, 1, 2.0): "5dc2e6948771824430f83132bd8c9241314f355bc74ca9b6d306993167d7dab3",
    FieldParams(2, 2, 0.25): "33ffd480d25cd5c821b3e113f37e074ed900b9054b4d0b35f55cf709f7e55c3b",
}


@pytest.mark.parametrize("params", list(PINNED), ids=lambda p: f"q{p.q}n{p.n}a{p.alpha}")
def test_in_range_values_pinned(params):
    assert _digest(params) == PINNED[params]

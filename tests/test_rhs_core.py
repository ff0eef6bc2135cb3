"""The spectral core shared by the fi and compressible right-hand sides.

Pins its transform budget, checks it against the composed diffops
expressions it replaced, and checks that the FFT worker count does not change
a single bit of its output.
"""

import numpy as np
import pytest
import scipy.fft

from metacont.diffops import (
    advect_scalar,
    curl_curl,
    div,
    grad,
    leray_project,
    vector_advection,
)
from metacont.dynamics import (
    FluidState,
    MediumParams,
    SecondOrderState,
    rhs_compressible,
    rhs_fi_incompressible,
    rhs_second_order,
    upper_convected_vector,
)
from metacont.fields import ScalarField, dealias_field, make_grid, norm_linf

from helpers import band_limited_scalar, band_limited_vector

PARAMS = MediumParams(mu=1.3, eta=0.8, lam=2.5, kappa=0.4, nu=0.3)
SYSTEMS = ("fi", "compressible_solid", "compressible_liquid")


def _state(grid, seed=0, solenoidal=True):
    v = band_limited_vector(grid, seed, fraction=1 / 6, amplitude=0.1,
                            solenoidal=solenoidal)
    E = band_limited_vector(grid, seed + 1, fraction=1 / 6, amplitude=0.1)
    u = band_limited_vector(grid, seed + 2, fraction=1 / 6, amplitude=0.01)
    mu = band_limited_scalar(grid, seed + 3, fraction=1 / 6, amplitude=0.2)
    mu_field = ScalarField(grid, 1.0 + mu.values)
    return FluidState(time=0.0, v=v, E=E, mu_field=mu_field, u=u)


def _rhs(system, state, params=PARAMS):
    if system == "fi":
        return rhs_fi_incompressible(state, params)
    if system == "second_order":
        return rhs_second_order(state, params)
    return rhs_compressible(state, params, system.split("_")[1])


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------

# component transforms per RHS call (a call on a stack of n components counts
# n); the count depends only on which axes are active, so 16^3 stands in for
# every 3D grid
BUDGET = {
    ("fi", "2d"): 32, ("fi", "3d"): 38,
    ("compressible_solid", "2d"): 40, ("compressible_solid", "3d"): 49,
    ("compressible_liquid", "2d"): 38, ("compressible_liquid", "3d"): 46,
    ("second_order", "2d"): 66, ("second_order", "3d"): 66,
}
BUDGET_GRIDS = {
    "2d": make_grid((64, 64, 1), (2 * np.pi,) * 3),
    "3d": make_grid((16, 16, 16), (2 * np.pi,) * 3),
}
# every forward and inverse entry point of scipy.fft; the first six are the
# complex-to-complex ones
C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_ENTRY_POINTS = C2C + ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                          "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")


@pytest.mark.parametrize("system", SYSTEMS + ("second_order",))
@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS))
def test_transform_budget_per_rhs_call(system, shape, monkeypatch):
    state = _state(BUDGET_GRIDS[shape])
    if system == "second_order":
        state = SecondOrderState(time=0.0, v=state.v,
                                 v_t=rhs_fi_incompressible(state, PARAMS).dv)
    calls = []
    for name in FFT_ENTRY_POINTS:
        original = getattr(scipy.fft, name)

        def counted(x, *args, _original=original, _name=name, **kwargs):
            # a call on a stack transforms each of its components
            calls.append((_name, int(np.prod(np.shape(x)[:-3]))))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    _rhs(system, state)
    assert sum(n for _, n in calls) == BUDGET[(system, shape)]
    names = {name for name, _ in calls}
    assert not names & set(C2C), sorted(names)


# ---------------------------------------------------------------------------
# equivalence with the composed diffops expressions
# ---------------------------------------------------------------------------

def _oracle(system, state, params=PARAMS):
    """The right-hand sides as compositions of public diffops operators."""
    v, E = state.v, state.E
    bracket = (vector_advection(v, E) - vector_advection(E, v)
               + dealias_field(E * div(v)))
    dE = curl_curl(v) * params.eta - bracket - E * params.kappa
    if system == "fi":
        projected = leray_project(E * (-1.0 / params.mu) - vector_advection(v, v))
        return {"dv": projected.solenoidal, "dE": dE,
                "pressure": projected.potential * params.mu}
    mu_f = state.mu_field
    if system == "compressible_liquid":
        dilational = div(v) * (params.nu + 2.0 * params.zeta)
    else:
        dilational = div(state.u) * (params.lam + 2.0 * params.eta)
    inv_mu = ScalarField(v.grid, 1.0 / mu_f.values)
    dv = dealias_field((grad(dilational) - E) * inv_mu) - vector_advection(v, v)
    dmu = -advect_scalar(v, mu_f) - dealias_field(mu_f * div(v))
    return {"dv": dv, "dE": dE, "dmu": dmu}


EQUIVALENCE_GRIDS = {
    "cubic": make_grid((16, 16, 16), (2 * np.pi,) * 3),
    "anisotropic": make_grid((16, 8, 12), (2 * np.pi, 3.0, 5.5)),
    "nz1": make_grid((32, 24, 1), (4.0, 2 * np.pi, 1.0)),
    "inactive_middle": make_grid((16, 1, 8), (3.0, 1.0, 2 * np.pi)),
}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("grid_name", sorted(EQUIVALENCE_GRIDS))
def test_core_matches_composed_operators(system, grid_name):
    # the fi RHS rejects a divergent v; the compressible ones get one, so
    # that every div v term is exercised
    state = _state(EQUIVALENCE_GRIDS[grid_name], seed=7, solenoidal=system == "fi")
    rates = _rhs(system, state)
    for name, expected in _oracle(system, state).items():
        scale = norm_linf(expected)
        assert scale > 0.0, name
        rel = norm_linf(getattr(rates, name) - expected) / scale
        assert rel < 1e-12, (name, rel)


@pytest.mark.parametrize("grid_name", sorted(EQUIVALENCE_GRIDS))
def test_upper_convected_vector_matches_composed_operators(grid_name):
    state = _state(EQUIVALENCE_GRIDS[grid_name], seed=11, solenoidal=False)
    v, E = state.v, state.E
    expected = (vector_advection(v, E) - vector_advection(E, v)
                + dealias_field(E * div(v)))
    got = upper_convected_vector(E, v, None)
    assert norm_linf(got - expected) < 1e-12 * norm_linf(expected)


# ---------------------------------------------------------------------------
# thread-count determinism
# ---------------------------------------------------------------------------

def _digest(rates):
    arrays = []
    for value in vars(rates).values():
        if value is None:
            continue
        if isinstance(value, ScalarField):
            arrays.append(value.values)
        else:
            arrays.extend(value.arrays())
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("system", ("fi", "compressible_solid"))
@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS))
def test_rhs_bitwise_equal_across_thread_counts(system, shape, monkeypatch):
    state = _state(BUDGET_GRIDS[shape], seed=3)
    monkeypatch.setenv("METACONT_THREADS", "1")
    one = _digest(_rhs(system, state))
    monkeypatch.setenv("METACONT_THREADS", "2")
    two = _digest(_rhs(system, state))
    assert one == two

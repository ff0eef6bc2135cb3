"""The half-spectrum layout of `fields` against a complex-to-complex reference.

The operators, the dealiasing and the fi right-hand side must equal the
plain c2c evaluation in `c2c_reference` on band-limited input; the layout's
own bookkeeping (shape, Nyquist convention, negative halved-axis modes,
Parseval) is checked directly; `test_fields` checks the dealias cut-off
along the halved axis.
"""

import numpy as np
import pytest

import c2c_reference as c2c
from metacont.diffops import curl, curl_curl, div, grad, laplacian, leray_project
from metacont.dynamics import FluidState, MediumParams, rhs_fi_incompressible
from metacont.fields import (
    ScalarField,
    dealias_field,
    fftn_array,
    make_grid,
    mode_coefficient,
    norm_l2,
    norm_linf,
    spectral_norm_l2,
)

from helpers import GRID_64, band_limited_scalar, band_limited_vector

TWO_PI = 2.0 * np.pi
GRIDS = {
    "64x64x1": make_grid((64, 64, 1), (TWO_PI,) * 3),
    "16^3": make_grid((16, 16, 16), (TWO_PI,) * 3),
    "inactive_middle": make_grid((8, 1, 6), (3.0, 1.0, TWO_PI)),
    "x_only": make_grid((16, 1, 1), (5.0, 1.0, 1.0)),
    "anisotropic": make_grid((16, 8, 12), (TWO_PI, 3.0, 5.5)),
}
FRACTION = 0.45
PARAMS = MediumParams(mu=1.3, eta=0.8, kappa=0.4)


def _rel(got, expected) -> float:
    """Relative L-inf distance of two arrays or two triples of arrays."""
    got, expected = np.asarray(got), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    return float(np.max(np.abs(got - expected)) / scale)


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return GRIDS[request.param]


# ---------------------------------------------------------------------------
# operators against the c2c reference
# ---------------------------------------------------------------------------

def test_scalar_operators_match_c2c(grid):
    f = band_limited_scalar(grid, seed=1, fraction=FRACTION)
    assert _rel(grad(f).values, c2c.grad(grid, f.values)) <= 1e-12
    assert _rel(laplacian(f).values, c2c.laplacian(grid, f.values)) <= 1e-12
    assert _rel(dealias_field(f).values, c2c.dealias(grid, f.values)) <= 1e-12


def test_vector_operators_match_c2c(grid):
    v = band_limited_vector(grid, seed=2, fraction=FRACTION)
    va = v.values
    assert _rel(div(v).values, c2c.div(grid, va)) <= 1e-12
    assert _rel(curl(v).values, c2c.curl(grid, va)) <= 1e-12
    assert _rel(curl_curl(v).values, c2c.curl_curl(grid, va)) <= 1e-12
    assert _rel(laplacian(v).values,
                [c2c.laplacian(grid, a) for a in va]) <= 1e-12
    assert _rel(dealias_field(v).values,
                [c2c.dealias(grid, a) for a in va]) <= 1e-12


def test_leray_projection_matches_c2c(grid):
    v = band_limited_vector(grid, seed=3, fraction=FRACTION)
    got = leray_project(v)
    solenoidal, potential = c2c.leray(grid, v.values)
    assert _rel(got.solenoidal.values, solenoidal) <= 1e-12
    assert _rel(got.potential.values, potential) <= 1e-12


def test_rhs_fi_incompressible_matches_c2c(grid):
    v = band_limited_vector(grid, seed=4, fraction=FRACTION, amplitude=0.1,
                            solenoidal=True)
    E = band_limited_vector(grid, seed=5, fraction=FRACTION, amplitude=0.1)
    rates = rhs_fi_incompressible(FluidState(time=0.0, v=v, E=E), PARAMS)
    dv, dE, pressure = c2c.rhs_fi_incompressible(grid, v.values, E.values, PARAMS)
    assert _rel(rates.dv.values, dv) <= 1e-12
    assert _rel(rates.dE.values, dE) <= 1e-12
    assert _rel(rates.pressure.values, pressure) <= 1e-12


def test_first_derivative_of_full_band_input_matches_c2c(grid):
    # the Nyquist wavenumber is zero, which is what c2c `.real` gives a
    # single first derivative of any real input
    rng = np.random.default_rng(6)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    assert _rel(grad(f).values, c2c.grad(grid, f.values)) <= 1e-12


# ---------------------------------------------------------------------------
# the layout itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims, shape", [
    ((64, 64, 1), (64, 33, 1)),
    ((16, 16, 16), (16, 16, 9)),
    ((8, 1, 6), (8, 1, 4)),
    ((16, 1, 1), (9, 1, 1)),
    ((1, 1, 1), (1, 1, 1)),
])
def test_spectral_shape_halves_the_last_active_axis(dims, shape):
    g = make_grid(dims, (TWO_PI,) * 3)
    assert g.spectral_shape == shape
    f = ScalarField(g, np.random.default_rng(0).standard_normal(dims))
    assert fftn_array(g, f.values).shape == shape


@pytest.mark.parametrize("axis", [0, 1])
def test_derivatives_annihilate_the_nyquist_mode(axis):
    nyquist = ScalarField(GRID_64, np.cos(np.pi * np.arange(64)).reshape(
        [64 if a == axis else 1 for a in range(3)]) * np.ones(GRID_64.shape))
    assert norm_linf(grad(nyquist)) < 1e-12
    assert norm_linf(laplacian(nyquist)) < 1e-12


def test_mode_coefficient_at_a_negative_halved_axis_index():
    x, y, _ = GRID_64.coordinates()
    f = ScalarField(GRID_64, np.sin(x - y) * np.ones(GRID_64.shape))
    # sin(x - y) = (e^{i(x-y)} - e^{-i(x-y)}) / 2i
    assert abs(mode_coefficient(f, (1, -1, 0)) - (-0.5j)) < 1e-12
    assert abs(mode_coefficient(f, (-1, 1, 0)) - 0.5j) < 1e-12


def test_mode_coefficient_matches_c2c(grid):
    f = band_limited_scalar(grid, seed=8, fraction=0.5)
    full = c2c.fft(grid, f.values) / grid.num_points
    for mode in [(1, -1, 2), (-2, 0, -1), (0, 3, -3), (-1, -1, -1), (5, 7, 11)]:
        mode = tuple(m if a else 0 for m, a in zip(mode, grid.active))
        idx = tuple(m % n for m, n in zip(mode, grid.dims))
        assert abs(mode_coefficient(f, mode) - full[idx]) < 1e-12


@pytest.mark.parametrize("fraction", [0.25, 0.5, None])
def test_parseval_on_the_halved_layout(grid, fraction):
    # fraction 0.5 keeps the Nyquist bins, which count once; None is white noise
    if fraction is None:
        f = ScalarField(grid, np.random.default_rng(10).standard_normal(grid.shape))
    else:
        f = band_limited_scalar(grid, seed=9, fraction=fraction)
    phys = norm_l2(f)
    coeffs = fftn_array(grid, f.values)
    assert abs(spectral_norm_l2(grid, coeffs) - phys) / phys < 1e-12

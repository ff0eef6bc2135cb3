"""Spectral operators: hand-differentiated oracles, vector-calculus identities."""

import numpy as np
import pytest

from metacont.fields import (
    ScalarField,
    TensorField,
    VectorField,
    norm_l2,
    norm_linf,
)
from metacont.diffops import (
    advect_scalar,
    curl,
    curl_curl,
    div,
    divergence_tensor,
    double_advection,
    grad,
    grad_vector,
    gromeka_lamb_residual,
    hessian_contract,
    identity_residual_triple,
    laplacian,
    leray_project,
    vector_advection,
)

from helpers import (
    GRID_32_3D,
    GRID_64,
    band_limited_tensor,
    band_limited_vector,
    cosine_scalar,
    identity_tensor,
    sine_scalar,
    vector_of,
)


def _coords(grid):
    return grid.coordinates()


class TestFirstOrderOperators:
    def test_grad_const_is_zero(self):
        assert norm_linf(grad(ScalarField.full(GRID_64, 2.0))) == 0.0

    def test_grad_sine_oracle(self):
        # d/dx sin(x) = cos(x), hand differentiation
        g = grad(sine_scalar(GRID_64, axis=0))
        expected = cosine_scalar(GRID_64, axis=0).values
        np.testing.assert_allclose(g.x.values, expected, atol=1e-12)
        assert norm_linf(g.y) < 1e-12
        assert norm_linf(g.z) < 1e-12

    def test_curl_crossed_sines_oracle(self):
        # curl of (-sin y, sin x, 0) = (0, 0, cos x + cos y)
        v = vector_of(GRID_64, fx=-1.0 * sine_scalar(GRID_64, axis=1),
                      fy=sine_scalar(GRID_64, axis=0))
        c = curl(v)
        x, y, _ = _coords(GRID_64)
        expected = np.broadcast_to(np.cos(x) + np.cos(y), GRID_64.shape)
        assert norm_linf(c.x) < 1e-12
        assert norm_linf(c.y) < 1e-12
        np.testing.assert_allclose(c.z.values, expected, atol=1e-12)

    def test_div_of_curl_vanishes(self):
        v = band_limited_vector(GRID_64, seed=21, fraction=0.4)
        assert norm_linf(div(curl(v))) < 1e-12

    def test_curl_of_grad_vanishes(self):
        f = sine_scalar(GRID_64, axis=0) * 2.0 + cosine_scalar(GRID_64, axis=1)
        assert norm_linf(curl(grad(f))) < 1e-12

    def test_identities_in_3d(self):
        v = band_limited_vector(GRID_32_3D, seed=22, fraction=0.3)
        assert norm_linf(div(curl(v))) < 1e-12
        f = sine_scalar(GRID_32_3D, axis=2)
        assert norm_linf(curl(grad(f))) < 1e-12

    def test_z_derivative_vanishes_when_nz_is_1(self):
        f = sine_scalar(GRID_64, axis=0)
        assert norm_linf(grad(f).z) == 0.0

    def test_laplacian_sine(self):
        f = sine_scalar(GRID_64, axis=0, k=2)
        np.testing.assert_allclose(laplacian(f).values, -4.0 * f.values, atol=1e-11)


class TestCurlCurl:
    def test_solenoidal_equals_minus_laplacian(self):
        v = band_limited_vector(GRID_64, seed=23, fraction=0.4, solenoidal=True)
        lhs = curl_curl(v)
        rhs = -1.0 * laplacian(v)
        assert norm_l2(lhs - rhs) < 1e-12 * max(norm_l2(lhs), 1.0)

    def test_gradient_field_maps_to_zero(self):
        v = grad(sine_scalar(GRID_64, axis=0) + cosine_scalar(GRID_64, axis=1))
        assert norm_linf(curl_curl(v)) < 1e-12

    def test_unit_shear_mode(self):
        # v = (sin y, 0, 0): curl curl v = -laplacian(v) = v for k=1
        v = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=1))
        out = curl_curl(v)
        np.testing.assert_allclose(out.x.values, v.x.values, atol=1e-12)
        assert norm_linf(out.y) < 1e-12

    def test_matches_grad_div_minus_laplacian(self):
        v = band_limited_vector(GRID_64, seed=24, fraction=0.4)
        direct = curl_curl(v)
        composed = grad(div(v)) - laplacian(v)
        rel = norm_l2(direct - composed) / norm_l2(direct)
        assert rel < 1e-12


class TestAdvectionOperators:
    def test_vector_advection_zero_inputs(self):
        w = band_limited_vector(GRID_64, seed=25)
        assert norm_linf(vector_advection(VectorField.zeros(GRID_64), w)) == 0.0
        const = VectorField(GRID_64, (np.full(GRID_64.shape, 2.0),) * 3)
        v = band_limited_vector(GRID_64, seed=26)
        assert norm_linf(vector_advection(v, const)) < 1e-13

    def test_vector_advection_oracle(self):
        # v = (1,0,0), w = (sin x, 0, 0): (v.grad)w = (cos x, 0, 0)
        v = VectorField(
            GRID_64, (np.ones(GRID_64.shape), np.zeros(GRID_64.shape), np.zeros(GRID_64.shape)))
        w = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0))
        out = vector_advection(v, w)
        np.testing.assert_allclose(out.x.values, cosine_scalar(GRID_64, axis=0).values,
                                   atol=1e-12)
        assert norm_linf(out.y) < 1e-13

    def test_advect_scalar_oracle(self):
        v = VectorField(
            GRID_64, (np.ones(GRID_64.shape), np.zeros(GRID_64.shape), np.zeros(GRID_64.shape)))
        out = advect_scalar(v, sine_scalar(GRID_64, axis=0))
        np.testing.assert_allclose(out.values, cosine_scalar(GRID_64, axis=0).values,
                                   atol=1e-12)

    def test_hessian_contract_zero_cases(self):
        sigma = band_limited_tensor(GRID_64, seed=27)
        const_v = VectorField(GRID_64, (np.full(GRID_64.shape, 3.0),) * 3)
        assert norm_linf(hessian_contract(const_v, sigma)) < 1e-13
        v = band_limited_vector(GRID_64, seed=28)
        assert norm_linf(hessian_contract(v, TensorField.zeros(GRID_64))) == 0.0

    def test_hessian_contract_oracle(self):
        # v = (sin x, 0, 0), sigma = I: sum_ij delta_ij d_i d_j v = laplacian v = -v
        v = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0))
        out = hessian_contract(v, identity_tensor(GRID_64))
        np.testing.assert_allclose(out.x.values, -v.x.values, atol=1e-12)
        assert norm_linf(out.y) < 1e-13

    def test_double_advection_zero_cases(self):
        w = band_limited_vector(GRID_64, seed=29)
        assert norm_linf(double_advection(VectorField.zeros(GRID_64), w)) == 0.0
        v = band_limited_vector(GRID_64, seed=30)
        const_grad_w = VectorField(GRID_64, (np.full(GRID_64.shape, 1.5),) * 3)
        assert norm_linf(double_advection(v, const_grad_w)) < 1e-13

    def test_double_advection_oracle(self):
        # v = (1,0,0), w = (sin x,0,0): sum v_i v_j d_i d_j w = -sin x
        v = VectorField(
            GRID_64, (np.ones(GRID_64.shape), np.zeros(GRID_64.shape), np.zeros(GRID_64.shape)))
        w = vector_of(GRID_64, fx=sine_scalar(GRID_64, axis=0))
        out = double_advection(v, w)
        np.testing.assert_allclose(out.x.values, -w.x.values, atol=1e-12)

    def test_grad_vector_divergence_consistency(self):
        # (div grad v)_j = laplacian(v_j)
        v = band_limited_vector(GRID_64, seed=31, fraction=0.4)
        lhs = divergence_tensor(grad_vector(v))
        rhs = laplacian(v)
        assert norm_l2(lhs - rhs) < 1e-12 * norm_l2(rhs)


class TestLerayProjection:
    def test_solenoidal_input_unchanged(self):
        v = band_limited_vector(GRID_64, seed=32, solenoidal=True)
        out = leray_project(v)
        assert norm_linf(out.solenoidal - v) < 1e-12
        assert norm_linf(out.potential) < 1e-12

    def test_pure_gradient_input(self):
        # v = grad(sin x): solenoidal part vanishes, potential is sin x (zero mean)
        v = grad(sine_scalar(GRID_64, axis=0))
        out = leray_project(v)
        assert norm_linf(out.solenoidal) < 1e-12
        np.testing.assert_allclose(out.potential.values,
                                   sine_scalar(GRID_64, axis=0).values, atol=1e-12)

    def test_projection_makes_divergence_free(self):
        v = band_limited_vector(GRID_64, seed=33, fraction=0.4)
        out = leray_project(v)
        assert norm_linf(div(out.solenoidal)) < 1e-12

    def test_decomposition_reconstructs_input(self):
        v = band_limited_vector(GRID_64, seed=34, fraction=0.4)
        out = leray_project(v)
        recon = out.solenoidal + grad(out.potential)
        assert norm_l2(recon - v) < 1e-12 * norm_l2(v)

    def test_idempotent(self):
        v = band_limited_vector(GRID_64, seed=35, fraction=0.4)
        once = leray_project(v).solenoidal
        twice = leray_project(once).solenoidal
        assert norm_linf(twice - once) < 1e-13

    def test_potential_zero_mean(self):
        v = band_limited_vector(GRID_64, seed=36, fraction=0.4)
        pot = leray_project(v).potential
        assert abs(np.mean(pot.values)) < 1e-13


class TestIdentityResiduals:
    def test_triple_identity_zero_e(self):
        v = band_limited_vector(GRID_64, seed=37)
        assert norm_linf(identity_residual_triple(v, VectorField.zeros(GRID_64))) < 1e-13

    def test_triple_identity_v_equals_e(self):
        v = band_limited_vector(GRID_64, seed=38, fraction=0.25)
        assert norm_linf(identity_residual_triple(v, v)) < 1e-12

    def test_triple_identity_band_limited(self):
        v = band_limited_vector(GRID_64, seed=39, fraction=0.25)
        e = band_limited_vector(GRID_64, seed=40, fraction=0.25)
        assert norm_linf(identity_residual_triple(v, e)) < 1e-10

    def test_triple_identity_band_limited_3d(self):
        v = band_limited_vector(GRID_32_3D, seed=41, fraction=0.25)
        e = band_limited_vector(GRID_32_3D, seed=42, fraction=0.25)
        assert norm_linf(identity_residual_triple(v, e)) < 1e-10

    def test_gromeka_lamb_const(self):
        v = VectorField(GRID_64, (np.full(GRID_64.shape, 1.0),) * 3)
        assert norm_linf(gromeka_lamb_residual(v)) < 1e-13

    def test_gromeka_lamb_gradient_field(self):
        v = grad(sine_scalar(GRID_64, axis=0))
        assert norm_linf(gromeka_lamb_residual(v)) < 1e-10

    def test_gromeka_lamb_band_limited(self):
        v = band_limited_vector(GRID_64, seed=43, fraction=0.25)
        assert norm_linf(gromeka_lamb_residual(v)) < 1e-10

"""Spectral differential operators, Helmholtz-Leray projection, identity residuals.

Derivatives are multiplications by i*k in Fourier space, so they are exact for
resolved trigonometric fields and the compositions div(curl .) and curl(grad .)
vanish to round-off.  That exactness is what lets the derived-law residuals in
`emlaws` close at rounding level instead of at truncation level.

Operators built from pointwise products (advection, Hessian contractions, the
identity residuals) apply the two-thirds dealiasing rule to their results.
For inputs band-limited to |m_i| <= n_i/4 the quadratic products are exactly
represented, and the vector identities below hold discretely to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    FieldError,
    ScalarField,
    TensorField,
    VectorField,
    angular_wavenumbers,
    _k_squared,
    _check_same_grid,
    cross,
    dealias_array,
    dealias_field,
    dot,
    fftn_array,
    ifftn_array,
)

__all__ = [
    "ProjectionResult",
    "grad",
    "div",
    "curl",
    "laplacian",
    "curl_curl",
    "grad_vector",
    "divergence_tensor",
    "advect_scalar",
    "vector_advection",
    "hessian_contract",
    "double_advection",
    "leray_project",
    "identity_residual_triple",
    "gromeka_lamb_residual",
]


def grad(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    g = f.grid
    ks = angular_wavenumbers(g)
    fh = fftn_array(g, f.values)
    return VectorField.from_arrays(
        g, tuple(ifftn_array(g, (1j * k) * fh) for k in ks)
    )


def div(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    g = v.grid
    ks = angular_wavenumbers(g)
    acc = None
    for k, arr in zip(ks, v.arrays()):
        term = (1j * k) * fftn_array(g, arr)
        acc = term if acc is None else acc + term
    return ScalarField(g, ifftn_array(g, acc))


def _curl_hat(ks, hats, j: int) -> np.ndarray:
    """Component j of ik x h for the coefficient triple h of a vector field."""
    a, b = (j + 1) % 3, (j + 2) % 3
    return 1j * (ks[a] * hats[b] - ks[b] * hats[a])


def _curl_curl_hat(ks, hats, j: int) -> np.ndarray:
    """Component j of ik x (ik x h), forming only the two inner components it needs."""
    a, b = (j + 1) % 3, (j + 2) % 3
    return 1j * (ks[a] * _curl_hat(ks, hats, b) - ks[b] * _curl_hat(ks, hats, a))


def curl(v: VectorField) -> VectorField:
    """Spectral curl of a vector field."""
    g = v.grid
    ks = angular_wavenumbers(g)
    hats = [fftn_array(g, a) for a in v.arrays()]
    return VectorField.from_arrays(
        g, tuple(ifftn_array(g, _curl_hat(ks, hats, j)) for j in range(3))
    )


def laplacian(f: ScalarField | VectorField) -> ScalarField | VectorField:
    """Spectral Laplacian (same rank as the input)."""
    g = f.grid
    k2 = _k_squared(g)
    if isinstance(f, ScalarField):
        return ScalarField(g, ifftn_array(g, -k2 * fftn_array(g, f.values)))
    if isinstance(f, VectorField):
        return VectorField.from_arrays(
            g, tuple(ifftn_array(g, -k2 * fftn_array(g, a)) for a in f.arrays())
        )
    raise FieldError("laplacian expects a scalar or vector field")


def curl_curl(v: VectorField) -> VectorField:
    """curl(curl v).

    Composed from two curls rather than expanded as grad(div v)-laplacian(v):
    the composition cancels mode products bitwise, so gradient fields map to
    zero at the rounding floor instead of being amplified by k_max^2.  The
    elastic-fluid RHS core in `dynamics` forms the same composition without
    the physical round trip between the curls, as ik x (ik x v_hat) through
    `_curl_curl_hat`, so its eta curl(curl v) term keeps this cancellation.
    """
    return curl(curl(v))


def grad_vector(v: VectorField) -> TensorField:
    """Velocity-gradient tensor with components (grad v)_ij = d_i v_j."""
    g = v.grid
    ks = angular_wavenumbers(g)
    hats = [fftn_array(g, a) for a in v.arrays()]
    rows = tuple(
        tuple(ifftn_array(g, (1j * ks[i]) * hats[j]) for j in range(3))
        for i in range(3)
    )
    return TensorField.from_arrays(g, rows)


def divergence_tensor(t: TensorField) -> VectorField:
    """Divergence over the first index: (div T)_j = d_i T_ij."""
    g = t.grid
    ks = angular_wavenumbers(g)
    out = []
    for j in range(3):
        acc = None
        for i in range(3):
            term = (1j * ks[i]) * fftn_array(g, t.array(i, j))
            acc = term if acc is None else acc + term
        out.append(ifftn_array(g, acc))
    return VectorField.from_arrays(g, tuple(out))


def advect_scalar(v: VectorField, f: ScalarField) -> ScalarField:
    """(v . grad) f with the product dealiased."""
    _check_same_grid(v, f)
    g = f.grid
    ks = angular_wavenumbers(g)
    fh = fftn_array(g, f.values)
    out = np.zeros(g.shape)
    for k, varr in zip(ks, v.arrays()):
        out = out + varr * ifftn_array(g, (1j * k) * fh)
    return ScalarField(g, dealias_array(g, out))


def vector_advection(v: VectorField, w: VectorField) -> VectorField:
    """(v . grad) w: contraction of v with the spectral gradient of w, dealiased."""
    _check_same_grid(v, w)
    g = v.grid
    ks = angular_wavenumbers(g)
    what = [fftn_array(g, a) for a in w.arrays()]
    varr = v.arrays()
    out = []
    for j in range(3):
        acc = np.zeros(g.shape)
        for i in range(3):
            acc = acc + varr[i] * ifftn_array(g, (1j * ks[i]) * what[j])
        out.append(dealias_array(g, acc))
    return VectorField.from_arrays(g, tuple(out))


_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _second_derivatives(g, hat) -> dict[tuple[int, int], np.ndarray]:
    """d_i d_j of one component for the six independent index pairs."""
    ks = angular_wavenumbers(g)
    return {
        (i, j): ifftn_array(g, -(ks[i] * ks[j]) * hat) for i, j in _SYM_PAIRS
    }


def hessian_contract(v: VectorField, sigma: TensorField) -> VectorField:
    """Contraction of the velocity Hessian with a rank-2 field:
    result_k = sum_ij sigma_ij d_i d_j v_k, dealiased."""
    _check_same_grid(v, sigma)
    g = v.grid
    out = []
    for comp_arr in v.arrays():
        hat = fftn_array(g, comp_arr)
        d2 = _second_derivatives(g, hat)
        acc = np.zeros(g.shape)
        for i, j in _SYM_PAIRS:
            weight = sigma.array(i, j) if i == j else sigma.array(i, j) + sigma.array(j, i)
            acc = acc + weight * d2[(i, j)]
        out.append(dealias_array(g, acc))
    return VectorField.from_arrays(g, tuple(out))


def double_advection(v: VectorField, w: VectorField) -> VectorField:
    """(vv) grad grad w = sum_ij v_i v_j d_i d_j w, dealiased (cubic nonlinearity)."""
    _check_same_grid(v, w)
    g = v.grid
    varr = v.arrays()
    out = []
    for comp_arr in w.arrays():
        hat = fftn_array(g, comp_arr)
        d2 = _second_derivatives(g, hat)
        acc = np.zeros(g.shape)
        for i, j in _SYM_PAIRS:
            factor = 1.0 if i == j else 2.0
            acc = acc + factor * (varr[i] * varr[j]) * d2[(i, j)]
        out.append(dealias_array(g, acc))
    return VectorField.from_arrays(g, tuple(out))


@dataclass(frozen=True)
class ProjectionResult:
    """Helmholtz decomposition: input = solenoidal + grad(potential)."""

    solenoidal: VectorField
    potential: ScalarField


def leray_project(v: VectorField) -> ProjectionResult:
    """Remove the gradient part of v.

    The potential solves laplacian(phi) = div v with the zero-mean convention;
    the solenoidal part is v - grad(phi) and is divergence-free to round-off.
    """
    g = v.grid
    sol_hats, phi_hat = _leray_hat(g, [fftn_array(g, a) for a in v.arrays()])
    return ProjectionResult(
        VectorField.from_arrays(g, tuple(ifftn_array(g, h) for h in sol_hats)),
        ScalarField(g, ifftn_array(g, phi_hat)),
    )


def _leray_hat(g, hats) -> tuple[list[np.ndarray], np.ndarray]:
    """Spectral Leray projection: (solenoidal coefficients, potential coefficients)."""
    ks = angular_wavenumbers(g)
    div_hat = 1j * (ks[0] * hats[0] + ks[1] * hats[1] + ks[2] * hats[2])
    # k = 0 at the mean and the all-Nyquist modes; div_hat is zero there, so
    # the guard pins phi_hat to zero
    k2 = _k_squared(g)
    phi_hat = -div_hat / np.where(k2 > 0.0, k2, 1.0)
    return [h - (1j * k) * phi_hat for k, h in zip(ks, hats)], phi_hat


def identity_residual_triple(v: VectorField, e: VectorField) -> VectorField:
    """Residual of curl(v x e) = e.grad v - v.grad e + v (div e) - e (div v).

    Every quadratic product is dealiased once, identically on both sides, so
    band-limited inputs (|m| <= n/4) give a residual at rounding level.
    """
    _check_same_grid(v, e)
    lhs = curl(dealias_field(cross(v, e)))
    rhs = (
        vector_advection(e, v)
        - vector_advection(v, e)
        + dealias_field(v * div(e))
        - dealias_field(e * div(v))
    )
    return lhs - rhs


def gromeka_lamb_residual(v: VectorField) -> VectorField:
    """Residual of (v.grad)v = grad(v^2/2) - v x curl(v), products dealiased."""
    advection = vector_advection(v, v)
    kinetic = dealias_field(dot(v, v) * 0.5)
    lamb = dealias_field(cross(v, curl(v)))
    return advection - (grad(kinetic) - lamb)

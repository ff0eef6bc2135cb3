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
from functools import lru_cache

import numpy as np

from .fields import (
    Field,
    ScalarField,
    TensorField,
    VectorField,
    _check_same_grid,
    _cross_arrays,
    _k_squared,
    _k_vector,
    _plane,
    _transform_axes,
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


@lru_cache(maxsize=128)
def _ik(g, plane: bool = False) -> np.ndarray:
    """i k_x, i k_y, i k_z stacked like `_k_vector` (its `plane` pair), read-only."""
    ik = 1j * (_k_vector(g, plane=True) if plane else _k_vector(g))
    ik.setflags(write=False)
    return ik


@lru_cache(maxsize=128)
def _broadcast_shape(*shapes) -> tuple[int, ...]:
    return np.broadcast_shapes(*shapes)


def _div_hat(g, hats, out=None) -> np.ndarray:
    """sum_i (i k_i) hats[i] over the active axes i, from +0, into `out` if
    given: the divergence of stacked coefficients over their leading axis
    (of a tensor stack too).  Only the hats[i] of active axes are read, so
    hats may be a dict of those; with no active axis, the divergence of a
    stack is zero with the shape of one of its entries, hats.shape[1:]."""
    ik, axes = _ik(g), _transform_axes(g)
    if out is None:
        shapes = [np.shape(hats[i]) for i in axes] or [np.shape(hats)[1:]]
        out = np.zeros(_broadcast_shape(g.spectral_shape, *shapes), dtype=np.complex128)
    else:
        out.fill(0.0)
    term = np.empty_like(out)
    for i in axes:
        out += np.multiply(ik[i], hats[i], out=term)
    return out


def _gradient(g, values: np.ndarray) -> np.ndarray:
    """d_i of every component of a stack; the new leading axis is i.  The
    derivative along an inactive axis is an exact zero, so it is filled in
    instead of transformed."""
    axes = list(_transform_axes(g))
    ik = _ik(g)[axes][(slice(None),) + (None,) * (values.ndim - 3)]
    active = ifftn_array(g, ik * fftn_array(g, values))
    if len(axes) == 3:
        return active
    out = np.zeros((3,) + values.shape)
    out[axes] = active
    return out


def _divergence(g, values: np.ndarray) -> np.ndarray:
    """sum_i d_i values[i]: the leading axis contracted with the gradient."""
    return ifftn_array(g, _div_hat(g, fftn_array(g, values)))


def grad(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    return VectorField._wrap(f.grid, _gradient(f.grid, f.values))


def div(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    return ScalarField._wrap(v.grid, _divergence(v.grid, v.values))


def _curl_hat(k, hats, out=None) -> np.ndarray:
    """ik x h for stacked wavenumbers k and coefficients h of a vector field,
    into `out` if given."""
    out = _cross_arrays(k, hats, out)
    out *= 1j
    return out


def _curl_curl_hat(k, hats) -> np.ndarray:
    """ik x (ik x h)."""
    return _curl_hat(k, _curl_hat(k, hats))


def curl(v: VectorField) -> VectorField:
    """Spectral curl of a vector field."""
    g = v.grid
    return VectorField._wrap(g, ifftn_array(g, _curl_hat(_k_vector(g),
                                                          fftn_array(g, v.values))))


def laplacian(f: Field) -> Field:
    """Spectral Laplacian (same rank as the input)."""
    g = f.grid
    return f._wrap(g, ifftn_array(g, -_k_squared(g) * fftn_array(g, f.values)))


def curl_curl(v: VectorField) -> VectorField:
    """curl(curl v).

    Composed from two curls rather than expanded as grad(div v)-laplacian(v):
    the composition cancels mode products bitwise, so gradient fields map to
    zero at the rounding floor instead of being amplified by k_max^2.  The
    elastic-fluid RHS core in `dynamics` forms the same composition without
    the physical round trip between the curls, as ik x (ik x v_hat), so its
    eta curl(curl v) term keeps this cancellation.
    """
    return curl(curl(v))


def grad_vector(v: VectorField) -> TensorField:
    """Velocity-gradient tensor with components (grad v)_ij = d_i v_j."""
    return TensorField._wrap(v.grid, _gradient(v.grid, v.values))


def divergence_tensor(t: TensorField) -> VectorField:
    """Divergence over the first index: (div T)_j = d_i T_ij."""
    return VectorField._wrap(t.grid, _divergence(t.grid, t.values))


def _contract(g, weights, symbols, hat: np.ndarray) -> np.ndarray:
    """sum_p weights[p] * D_p values, where symbols[p] is the spectral symbol
    of the derivative D_p and hat the coefficients of the stack values.  One
    derivative of the whole stack is alive at a time, so the peak memory
    stays that of a few stacks.  A symbol that is identically zero (a
    derivative along an inactive axis) adds an exact zero, so it is skipped
    instead of transformed."""
    out = np.zeros(hat.shape[:-3] + g.shape)
    for w, sym in zip(weights, symbols):
        if sym.any():
            out += w * ifftn_array(g, sym * hat)
    return out


def advect_scalar(v: VectorField, f: ScalarField) -> ScalarField:
    """(v . grad) f with the product dealiased."""
    _check_same_grid(v, f)
    g = f.grid
    out = _contract(g, v.values, _ik(g), fftn_array(g, f.values))
    return ScalarField._wrap(g, dealias_array(g, out))


def vector_advection(v: VectorField, w: VectorField) -> VectorField:
    """(v . grad) w: contraction of v with the spectral gradient of w, dealiased."""
    _check_same_grid(v, w)
    g = v.grid
    out = _contract(g, v.values, _ik(g), fftn_array(g, w.values))
    return VectorField._wrap(g, dealias_array(g, out))


# the six independent index pairs (i, j) of a symmetric second derivative
_SYM_I, _SYM_J = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]
_SYM_OFF = (np.array(_SYM_I) != np.array(_SYM_J)).reshape(6, 1, 1, 1)


@lru_cache(maxsize=128)
def _second_derivative_symbols(g) -> np.ndarray:
    """The symbols -k_i k_j of d_i d_j for the six pairs, as complex128 (see
    the `fields` docstring), read-only."""
    k = _k_vector(g).real
    symbols = (-(k[_SYM_I] * k[_SYM_J])).astype(np.complex128)
    symbols.setflags(write=False)
    return symbols


def hessian_contract(v: VectorField, sigma: TensorField) -> VectorField:
    """Contraction of the velocity Hessian with a rank-2 field:
    result_k = sum_ij sigma_ij d_i d_j v_k, dealiased."""
    _check_same_grid(v, sigma)
    g = v.grid
    s = sigma.values
    weights = np.where(_SYM_OFF, s[_SYM_I, _SYM_J] + s[_SYM_J, _SYM_I],
                       s[_SYM_I, _SYM_J])
    out = _contract(g, weights, _second_derivative_symbols(g),
                    fftn_array(g, v.values))
    return VectorField._wrap(g, dealias_array(g, out))


def double_advection(v: VectorField, w: VectorField) -> VectorField:
    """(vv) grad grad w = sum_ij v_i v_j d_i d_j w, dealiased (cubic nonlinearity)."""
    _check_same_grid(v, w)
    g = v.grid
    va = v.values
    weights = np.where(_SYM_OFF, 2.0, 1.0) * (va[_SYM_I] * va[_SYM_J])
    out = _contract(g, weights, _second_derivative_symbols(g),
                    fftn_array(g, w.values))
    return VectorField._wrap(g, dealias_array(g, out))


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
    sol_hat, phi_hat = _leray_hat(g, fftn_array(g, v.values))
    return ProjectionResult(VectorField._wrap(g, ifftn_array(g, sol_hat)),
                            ScalarField._wrap(g, ifftn_array(g, phi_hat)))


@lru_cache(maxsize=128)
def _guarded_k_squared(g) -> np.ndarray:
    """|k|^2 with 1 where it is 0, for the Leray projection, as complex128
    (see the `fields` docstring).  k = 0 at the mean and the all-Nyquist
    modes, where div_hat is zero too, so the guard pins phi_hat to zero there."""
    k2 = _k_squared(g)
    guarded = np.where(k2 > 0.0, k2, 1.0).astype(np.complex128)
    guarded.setflags(write=False)
    return guarded


def _leray_hat(g, hats: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Spectral Leray projection of stacked coefficients: (solenoidal
    coefficients, into `out` if given, and potential coefficients).  hats
    is a vector's three components or a planar vector's in-plane pair (see
    `fields`)."""
    planar = len(hats) == 2
    phi_hat = _div_hat(g, dict(zip(_plane(g), hats)) if planar else hats)
    np.negative(phi_hat, out=phi_hat)
    phi_hat /= _guarded_k_squared(g)
    sol_hat = np.multiply(_ik(g, plane=True) if planar else _ik(g), phi_hat, out=out)
    return np.subtract(hats, sol_hat, out=sol_hat), phi_hat


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

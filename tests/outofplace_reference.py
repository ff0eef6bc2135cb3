"""Out-of-place reference forms of the private array helpers on the stepping
path, the RHS coefficient algebra around them and the RK4 update, and the
law report composed in physical space (`fi_report_reference`).

The package forms each of these by scaling, accumulating and subtracting in
place, in arrays the helper allocates itself.  Each one-liner here is the
plain expression in the same operation order, so the in-place form must equal
it bitwise (`test_properties`, `test_dynamics`).  The references multiply by
the real wavenumbers, the real Leray guard and the boolean two-thirds mask,
which numpy casts to complex on every call, where the package multiplies by
cached complex copies; the results must still carry the same bits.
"""

import numpy as np

from metacont.diffops import (
    _SYM_I,
    _SYM_J,
    _guarded_k_squared,
    _ik,
    curl,
    div,
    vector_advection,
)
from metacont.fields import (
    _k_vector,
    _transform_axes,
    cross,
    dealias_field,
    dealias_mask,
    fftn_array,
    ifftn_array,
    norm_l2,
    norm_linf,
)

_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def cross_arrays(a, b):
    return np.stack([a[n] * b[f] - a[f] * b[n] for n, f in zip(_NEXT, _AFTER)])


def real_k(g):
    return _k_vector(g).real


def second_derivative_symbols(g):
    k = real_k(g)
    return -(k[_SYM_I] * k[_SYM_J])


def div_hat(g, hats):
    ik = _ik(g)
    return sum((ik[i] * hats[i] for i in _transform_axes(g)),
               np.zeros(g.spectral_shape, dtype=np.complex128))


def curl_hat(k, hats):
    return 1j * cross_arrays(k, hats)


def curl_curl_hat(k, hats):
    return curl_hat(k, curl_hat(k, hats))


def leray_hat(g, hats):
    phi_hat = -div_hat(g, hats) / _guarded_k_squared(g).real
    return hats - _ik(g) * phi_hat, phi_hat


def head_hat(g, va):
    out = fftn_array(g, 0.5 * np.sum(va * va, axis=0)) * dealias_mask(g)
    out.flat[0] = 0.0
    return out


def stress_rate_hat(g, hats, bracket_hat, params):
    return (params.eta * curl_curl_hat(real_k(g), hats[0]) - bracket_hat
            - params.kappa * hats[1])


def lamb(g, v_hat, va):
    return cross_arrays(va, ifftn_array(g, curl_hat(real_k(g), v_hat)))


def bracket_hat(g, e_hat, va, ea):
    div_e = ifftn_array(g, div_hat(g, e_hat))
    curl_ve = curl_hat(real_k(g), fftn_array(g, cross_arrays(va, ea)))
    return (fftn_array(g, va * div_e) - curl_ve) * dealias_mask(g)


def fi_rates_hat(g, hats, params):
    """The stacked rate coefficients [dv_hat, dE_hat] of `_rhs_fi_hat`."""
    va, ea = ifftn_array(g, hats)
    lamb_hat = fftn_array(g, lamb(g, hats[0], va)) * dealias_mask(g)
    dv_hat, _ = leray_hat(g, lamb_hat - hats[1] / params.mu)
    return np.stack([dv_hat, stress_rate_hat(g, hats, bracket_hat(g, hats[1], va, ea),
                                             params)])


def compressible_rates(state, params, rheology):
    """(dv, dE, dmu) of `_rhs_compressible`."""
    g = state.v.grid
    va, ea, mu = state.v.values, state.E.values, state.mu_field.values
    hats = fftn_array(g, np.stack([va, ea]))
    axes = list(_transform_axes(g))
    if rheology == "liquid":
        dilational_hat = div_hat(g, hats[0]) * (params.nu + 2.0 * params.zeta)
    else:
        dilational_hat = (params.lam + 2.0 * params.eta) * div_hat(
            g, {i: fftn_array(g, state.u.values[i]) for i in axes})
    inv_mu = 1.0 / mu
    momentum = lamb(g, hats[0], va) - ea * inv_mu
    momentum[axes] += ifftn_array(g, _ik(g)[axes] * dilational_hat) * inv_mu
    dv_hat = fftn_array(g, momentum) * dealias_mask(g) - _ik(g) * head_hat(g, va)
    dE_hat = stress_rate_hat(g, hats, bracket_hat(g, hats[1], va, ea), params)
    flux_hat = {i: fftn_array(g, mu * va[i]) for i in axes}
    dmu_hat = -div_hat(g, flux_hat) * dealias_mask(g)
    return ifftn_array(g, dv_hat), ifftn_array(g, dE_hat), ifftn_array(g, dmu_hat)


def rk4_stage(y0, k, s):
    return [y + kj * s for y, kj in zip(y0, k)]


def rk4_update(y0, k1, k2, k3, k4, h):
    return [y + (a + (b + c) * 2.0 + d) * (h / 6.0)
            for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]


def fi_report_reference(state, params, rates):
    """{law: (l2, linf, norm)} of `emlaws.fi_report`, composed from the
    public operators in physical space: every derivative and every dealiased
    product makes its own round trip, B = mu curl v and J = P[v div E] are
    physical fields, and each law's residual is the sum of its signed terms."""
    v, E, dE = state.v, state.E, rates.dE
    c2, kappa = params.c ** 2, params.kappa
    B, dB = curl(v) * params.mu, curl(rates.dv) * params.mu
    rho = div(E)
    J = dealias_field(v * rho)
    curl_E, curl_B = curl(E), curl(B)
    v_cross_E = dealias_field(cross(v, E))
    laws = {
        "faraday": [curl_E, dB],
        "displacement_current": [dE, -(curl_B * c2)],
        "faraday_lorentz": [curl_E, -curl(dealias_field(cross(v, B))), dB],
        "hertz_form": [dB, vector_advection(v, B), -vector_advection(B, v), curl_E],
        "generalized_ampere": [dE, -curl(v_cross_E), E * kappa, J, -(curl_B * c2)],
        "metacharge_continuity": [div(dE), div(J), rho * kappa],
        "biot_savart": [B, v_cross_E * (1.0 / c2)],
        "ohm_ampere": [curl_B, -(E * (kappa / c2))],
        "ampere_vacuo": [curl_B * c2, -J],
    }
    out = {}
    for name, terms in laws.items():
        residual = sum(terms[1:], terms[0])
        out[name] = (norm_l2(residual), norm_linf(residual),
                     max(norm_l2(term) for term in terms))
    return out

"""Complex-to-complex reference for the spectral operators.

Each operator is written the plain way: a full complex `scipy.fft.fftn` over
the active axes, a multiply by i*k with the full FFT-ordered wavenumbers, and
`ifftn(...).real`.  The package works in the real-to-complex half-spectrum
layout; on band-limited input the two must agree to round-off.  Fields are
passed as arrays (scalars) or triples of arrays (vectors).
"""

import numpy as np
import scipy.fft


def _axes(grid):
    return tuple(i for i, a in enumerate(grid.active) if a)


def fft(grid, values):
    axes = _axes(grid)
    return scipy.fft.fftn(values, axes=axes) if axes else values.astype(complex)


def ifft(grid, coeffs):
    axes = _axes(grid)
    return (scipy.fft.ifftn(coeffs, axes=axes) if axes else coeffs).real


def modes(grid):
    out = []
    for axis, n in enumerate(grid.dims):
        shape = [1, 1, 1]
        shape[axis] = n
        out.append(np.fft.fftfreq(n, d=1.0 / n).reshape(shape))
    return out


def wavenumbers(grid):
    return [(2.0 * np.pi / L) * m for m, L in zip(modes(grid), grid.lengths)]


def derivative(grid, values, axis):
    return ifft(grid, 1j * wavenumbers(grid)[axis] * fft(grid, values))


def grad(grid, f):
    return [derivative(grid, f, i) for i in range(3)]


def div(grid, v):
    return sum(derivative(grid, v[i], i) for i in range(3))


def curl(grid, v):
    return [derivative(grid, v[(j + 2) % 3], (j + 1) % 3)
            - derivative(grid, v[(j + 1) % 3], (j + 2) % 3) for j in range(3)]


def laplacian(grid, f):
    k2 = sum(k * k for k in wavenumbers(grid))
    return ifft(grid, -k2 * fft(grid, f))


def curl_curl(grid, v):
    return curl(grid, curl(grid, v))


def leray(grid, v):
    """(solenoidal part, potential) with laplacian(potential) = div v."""
    ks = wavenumbers(grid)
    hats = [fft(grid, a) for a in v]
    k2 = sum(k * k for k in ks) * np.ones(grid.shape)
    k2[0, 0, 0] = 1.0
    phi_hat = -1j * sum(k * h for k, h in zip(ks, hats)) / k2
    phi_hat[0, 0, 0] = 0.0
    return ([ifft(grid, h - 1j * k * phi_hat) for k, h in zip(ks, hats)],
            ifft(grid, phi_hat))


def dealias(grid, values):
    mask = np.ones(grid.shape, dtype=bool)
    for m, n, active in zip(modes(grid), grid.dims, grid.active):
        if active:
            mask = mask & (np.abs(m) <= n / 3.0)
    return ifft(grid, fft(grid, values) * mask)


def cross(a, b):
    return [a[(j + 1) % 3] * b[(j + 2) % 3] - a[(j + 2) % 3] * b[(j + 1) % 3]
            for j in range(3)]


def rhs_fi_incompressible(grid, v, E, params):
    """(dv, dE, pressure) of the frame-indifferent incompressible system."""
    # the momentum -(v.grad)v in the rotational form v x curl v - grad(|v|^2/2),
    # products dealiased; mu times the potential its projection removes is
    # the pressure
    lamb = [dealias(grid, c) for c in cross(v, curl(grid, v))]
    head = grad(grid, dealias(grid, sum(a * a for a in v) / 2.0))
    dv, phi = leray(grid, [m - h - e / params.mu for m, h, e in zip(lamb, head, E)])
    # the bracket v.grad E - E.grad v + (div v) E in the Maxwell form
    # v div E - curl(v x E), products dealiased
    divE = div(grid, E)
    vxE = [dealias(grid, c) for c in cross(v, E)]
    bracket = [dealias(grid, a * divE) - c for a, c in zip(v, curl(grid, vxE))]
    dE = [params.eta * cc - b - params.kappa * e
          for cc, b, e in zip(curl_curl(grid, v), bracket, E)]
    return dv, dE, phi * params.mu

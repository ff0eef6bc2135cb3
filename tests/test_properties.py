"""Property tests of the spectral layer and of the elastic-fluid RHS core
over many grids and box shapes.

Grids have random even active dims in [4, 24], in three layouts (3D, nz = 1,
inactive middle axis), and random anisotropic box lengths; planar grids have
one inactive axis in any of the three orientations.  Inputs are
band-limited noise, unit-peak but for the fluid states of the RHS check, so
the discrete identities hold to round-off.  The runs are derandomized: the
same examples are drawn every time.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from metacont.diffops import (
    _curl_curl_hat,
    _curl_hat,
    _div_hat,
    _leray_hat,
    advect_scalar,
    curl,
    div,
    divergence_tensor,
    grad,
    laplacian,
    leray_project,
    vector_advection,
)
from metacont.dynamics import (
    SYSTEMS as SYSTEM_TABLE,
    FluidState,
    MediumParams,
    StepControl,
    _head_hat,
    _rhs_fi_hat,
    _rhs_fi_plane_hat,
    _Stepper,
    _stress_rate_hat,
    integrate,
    rhs,
    upper_convected_vector,
)
from metacont.emlaws import fi_report
from metacont.fields import (
    ScalarField,
    _cross_arrays,
    _dealias_factor,
    _k_vector,
    _plane,
    _transform_axes,
    dealias_mask,
    fftn_array,
    ifftn_array,
    TensorField,
    VectorField,
    cross,
    dealias_field,
    dot,
    make_grid,
    norm_l2,
    norm_linf,
    read_snapshot,
    spectral_norm_l2,
    write_snapshot,
)
from metacont.scenarios import band_limited_noise

import outofplace_reference as ref
from helpers import band_limited_vector
from test_rhs_core import PARAMS, SYSTEMS, _bracket, _oracle

SETTINGS = settings(max_examples=25, deadline=2000, derandomize=True,
                    database=None)

_even = st.integers(2, 12).map(lambda h: 2 * h)
_length = st.floats(1.0, 12.0)


@st.composite
def grids(draw):
    nx, ny, nz = draw(_even), draw(_even), draw(_even)
    layout = draw(st.sampled_from(("3d", "nz1", "inactive_middle")))
    if layout == "nz1":
        nz = 1
    elif layout == "inactive_middle":
        ny = 1
    return make_grid((nx, ny, nz), (draw(_length), draw(_length), draw(_length)))


seeds = st.integers(0, 2 ** 32 - 1)


def _vector_noise(grid, seed) -> VectorField:
    """Unit-peak band-limited vector noise (|m_i| <= 0.4 n_i)."""
    return VectorField(grid, band_limited_noise(grid, seed, 0.4, (3,), 1.0))


@SETTINGS
@given(grids(), seeds)
def test_div_curl_and_curl_grad_vanish(grid, seed):
    v = _vector_noise(grid, seed)
    f = ScalarField(grid, band_limited_noise(grid, seed + 1, 0.4, peak=1.0))
    assert norm_linf(div(curl(v))) <= 1e-12
    assert norm_linf(curl(grad(f))) <= 1e-12


@SETTINGS
@given(grids(), seeds)
def test_leray_projection_is_idempotent_and_divergence_free(grid, seed):
    v = _vector_noise(grid, seed)
    once = leray_project(v).solenoidal
    twice = leray_project(once).solenoidal
    assert norm_linf(twice - once) <= 1e-12
    assert norm_linf(div(once)) <= 1e-12


@SETTINGS
@given(grids(), seeds)
def test_transform_round_trip_and_parseval(grid, seed):
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    coeffs = fftn_array(grid, f.values)
    assert np.max(np.abs(ifftn_array(grid, coeffs) - f.values)) <= 1e-13 * norm_linf(f)
    phys = norm_l2(f)
    assert abs(spectral_norm_l2(grid, coeffs) - phys) <= 1e-12 * phys


# even dims with the factors 3, 5 and 7 as well as powers of two
_fft_dims = st.sampled_from((4, 6, 8, 10, 12, 14, 20, 28, 30))


@st.composite
def transform_grids(draw):
    """Grids with 1, 2 or 3 active axes, an inactive one in any position."""
    active = draw(st.sampled_from([a for a in np.ndindex(2, 2, 2) if any(a)]))
    return make_grid([draw(_fft_dims) if a else 1 for a in active], (1.0, 1.0, 1.0))


@settings(SETTINGS, max_examples=100)
@given(transform_grids(), seeds, st.sampled_from(((), (3,), (2, 3))))
def test_transforms_equal_scipy_bitwise(grid, seed, lead):
    # numpy's per-axis passes give the bits of pocketfft's n-d transforms
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(lead + grid.shape)
    active = _transform_axes(grid)
    axes = [len(lead) + i for i in active]
    expected = scipy.fft.rfftn(values, axes=axes)
    assert fftn_array(grid, values).tobytes() == expected.tobytes()
    coeffs = expected + 1j * rng.standard_normal(expected.shape)
    back = scipy.fft.irfftn(coeffs, s=[grid.dims[i] for i in active], axes=axes)
    assert ifftn_array(grid, coeffs).tobytes() == back.tobytes()


def _components(f) -> list[ScalarField]:
    return [ScalarField(f.grid, a) for a in f.values.reshape((-1,) + f.grid.shape)]


@SETTINGS
@given(grids(), seeds, st.sampled_from((VectorField, TensorField)))
def test_stacked_algebra_equals_componentwise(grid, seed, kind):
    rng = np.random.default_rng(seed)
    shape = kind.COMPONENTS + grid.shape
    x = kind(grid, rng.standard_normal(shape))
    y = kind(grid, rng.standard_normal(shape))
    s = ScalarField(grid, rng.standard_normal(grid.shape))
    a = float(rng.uniform(0.5, 2.0))
    # (stacked result, the same operation on one component)
    cases = {
        "+": (x + y, lambda p, q: p + q),
        "-": (x - y, lambda p, q: p - q),
        "neg": (-x, lambda p, q: -p),
        "* real": (x * a, lambda p, q: p * a),
        "* scalar field": (x * s, lambda p, q: p * s),
        "/": (x / a, lambda p, q: p / a),
        "dealias_field": (dealias_field(x), lambda p, q: dealias_field(p)),
        "laplacian": (laplacian(x), lambda p, q: laplacian(p)),
    }
    for name, (stacked, op) in cases.items():
        expected = [op(p, q).values for p, q in zip(_components(x), _components(y))]
        assert np.array_equal(stacked.values, np.reshape(expected, shape)), name
    assert norm_linf(x) == max(norm_linf(p) for p in _components(x))
    if kind is VectorField:
        (x1, x2, x3), (y1, y2, y3) = _components(x), _components(y)
        assert np.array_equal(dot(x, y).values, (x1 * y1 + x2 * y2 + x3 * y3).values)
        expected = [x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1]
        assert np.array_equal(cross(x, y).values, np.stack([c.values for c in expected]))


@SETTINGS
@given(grids(), seeds, st.sampled_from(((3,), (2, 3))))
def test_stacked_noise_equals_successive_component_draws(grid, seed, shape):
    rng = np.random.default_rng(seed)
    components = [band_limited_noise(grid, rng) for _ in range(int(np.prod(shape)))]
    stacked = band_limited_noise(grid, np.random.default_rng(seed), shape=shape)
    assert np.array_equal(stacked, np.reshape(components, shape + grid.shape))


def _fluid_state(grid, seed, solenoidal: bool, fraction=0.4) -> FluidState:
    """v, E and u of peak 0.1 and a density 1 +- 0.2, all noise band-limited
    to |m_i| <= fraction n_i."""
    rng = np.random.default_rng(seed)
    v, E, u = (VectorField(
        grid, band_limited_noise(grid, rng, fraction, (3,), 0.1)) for _ in range(3))
    if solenoidal:
        v = leray_project(v).solenoidal
    mu = ScalarField(grid, 1.0 + band_limited_noise(grid, rng, fraction, peak=0.2))
    return FluidState(time=0.0, v=v, E=E, mu_field=mu, u=u)


def _check_core(grid, seed, fraction, form):
    # the fi RHS rejects a divergent v; the others get one, so that every
    # div v term is exercised
    for system in SYSTEMS:
        state = _fluid_state(grid, seed, system == "fi_incompressible", fraction)
        rates = rhs(state, PARAMS, system)
        for name, expected in _oracle(system, state, form=form).items():
            scale = norm_linf(expected)
            assert scale > 0.0, (system, name)
            assert norm_linf(getattr(rates, name) - expected) <= 1e-12 * scale, (system, name)
    state = _fluid_state(grid, seed, False, fraction)
    expected = _bracket(state.v, state.E, form)
    got = upper_convected_vector(state.E, state.v)
    assert norm_linf(got - expected) <= 1e-12 * norm_linf(expected)


@SETTINGS
@given(grids(), seeds)
def test_spectral_core_matches_composed_operators(grid, seed):
    # |m_i| <= 0.4 n_i: products alias, and only the Maxwell form matches
    _check_core(grid, seed, 0.4, "maxwell")


@SETTINGS
@given(grids(), seeds)
def test_spectral_core_matches_convective_form_on_quarter_band_input(grid, seed):
    # |m_i| <= n_i / 4: every product is resolved, so the convective form
    # v.grad E - E.grad v + (div v) E and -v.grad mu - mu div v match too
    _check_core(grid, seed, 0.25, "convective")


def _close(got, expected, *terms) -> bool:
    """got == expected to 1e-12 of the largest of the terms."""
    scale = max(norm_linf(t) for t in (expected,) + terms)
    return norm_linf(got - expected) <= 1e-12 * scale


_boosts = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@SETTINGS
@given(grids(), seeds, st.sampled_from((1 / 3, 0.45)), _boosts)
def test_rhs_is_galilean_covariant(grid, seed, fraction, U):
    # for a uniform U, the RHS at v + U is the RHS at v less P[(U.grad) f]
    # for each advected field f, and the pressure is unchanged: the frame
    # indifference of the upper-convected stress rate, exact on the grid.
    # linear_navier and second_order are not covariant in this form.
    boost = VectorField(grid, np.reshape(U, (3, 1, 1, 1)) * np.ones((3,) + grid.shape))
    for system in SYSTEMS:
        state = _fluid_state(grid, seed, system == "fi_incompressible", fraction)
        boosted = dataclasses.replace(state, v=state.v + boost)
        rates, moved = rhs(state, PARAMS, system), rhs(boosted, PARAMS, system)
        shifts = {"dv": vector_advection(boost, state.v),
                  "dE": vector_advection(boost, state.E)}
        if system == "fi_incompressible":
            assert _close(moved.pressure, rates.pressure), system
        else:
            shifts["dmu"] = advect_scalar(boost, state.mu_field)
        for name, shift in shifts.items():
            rate = getattr(rates, name)
            assert _close(getattr(moved, name), rate - shift, rate, shift), (system, name)
    state = _fluid_state(grid, seed, False, fraction)
    rate = upper_convected_vector(state.E, state.v)
    shift = vector_advection(boost, state.E)
    moved = upper_convected_vector(state.E, state.v + boost)
    assert _close(moved, rate + shift, rate, shift)


@st.composite
def _square_pairs(draw):
    """A grid with equal n and L on two active axes i < j, j the halved
    (rfft) axis, and the pair (i, j)."""
    grid = draw(grids())
    axes = _transform_axes(grid)
    i, j = draw(st.sampled_from(axes[:-1])), axes[-1]
    dims, lengths = list(grid.dims), list(grid.lengths)
    dims[j], lengths[j] = dims[i], lengths[i]
    return make_grid(dims, lengths), i, j


def _swap(i, j):
    """The exchange of axes i and j, of the positions and of the components."""
    order = [0, 1, 2]
    order[i], order[j] = j, i

    def act(f):
        lead = f.values.ndim - 3
        moved = np.swapaxes(f.values, lead + i, lead + j)
        return type(f)(f.grid, moved[order] if lead else moved)
    return act


def _reflect(i):
    """The reflection x_i -> -x_i, of the positions and of the i components."""
    sign = np.ones((3, 1, 1, 1))
    sign[i] = -1.0

    def act(f):
        lead = f.values.ndim - 3
        moved = np.roll(np.flip(f.values, lead + i), 1, lead + i)
        return type(f)(f.grid, moved * sign if lead else moved)
    return act


def _rates(rates) -> dict:
    return {name: rate for name, rate in vars(rates).items() if rate is not None}


_fractions = st.sampled_from((1 / 3, 0.45, 0.5))


@SETTINGS
@given(_square_pairs(), seeds, _fractions, st.integers(0, 2))
def test_rhs_commutes_with_lattice_symmetries(pair, seed, fraction, axis):
    # the RHS of a swapped or reflected state is the swapped or reflected
    # RHS: the mask, the Nyquist convention and the half-spectrum layout keep
    # the lattice's symmetry, also where the swap moves the halved axis
    grid, i, j = pair
    for system in ("fi_incompressible", "compressible_solid"):
        state = _fluid_state(grid, seed, system == "fi_incompressible", fraction)
        rates = _rates(rhs(state, PARAMS, system))
        for act in (_swap(i, j), _reflect(axis)):
            moved = rhs(dataclasses.replace(
                state, **{name: act(f) for name, f in vars(state).items()
                          if name != "time"}), PARAMS, system)
            for name, rate in rates.items():
                assert _close(getattr(moved, name), act(rate)), (system, name)


@SETTINGS
@given(grids(), seeds, _fractions)
def test_rhs_is_time_reversible_without_conductivity(grid, seed, fraction):
    # at kappa = 0, reversing v reverses time: the rates of v and the
    # pressure are even in v, those of E, mu and u odd, to the bit.
    # compressible_liquid is excluded: its dilational viscosity term
    # grad((nu + 2 zeta) div v) / mu is odd in v, so it is not reversible.
    params = dataclasses.replace(PARAMS, kappa=0.0)
    for system in ("fi_incompressible", "compressible_solid"):
        state = _fluid_state(grid, seed, system == "fi_incompressible", fraction)
        back = rhs(dataclasses.replace(state, v=-state.v), params, system)
        for name, rate in _rates(rhs(state, params, system)).items():
            expected = rate if name in ("dv", "pressure") else -rate
            assert _bitwise(getattr(back, name).values, expected.values), (system, name)


@SETTINGS
@given(grids(), seeds, st.floats(0.0, 2.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
def test_fi_corollaries_close_at_round_off(grid, seed, kappa, mu, eta):
    # the four exact corollaries of the fi RHS on a band-limited state
    params = MediumParams(mu=mu, eta=eta, kappa=kappa)
    v = band_limited_vector(grid, seed, fraction=1 / 6, amplitude=1e-2,
                            solenoidal=True)
    E = band_limited_vector(grid, seed + 1, fraction=1 / 6, amplitude=1e-2)
    state = FluidState(time=0.0, v=v, E=E)
    report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
    for law in ("faraday_lorentz", "hertz_form", "generalized_ampere",
                "metacharge_continuity"):
        assert report.entry(law).normalized_linf < 1e-9, law


@SETTINGS
@given(grids(), seeds)
def test_fi_faraday_lorentz_closes_on_full_band_states(grid, seed):
    # every mode occupied, so no product is resolved: the momentum's
    # P[v x curl v] is the dealiased v x B / mu that the law reads, and the
    # projection removes only a gradient, which the curl annihilates
    rng = np.random.default_rng(seed)
    noise = lambda: VectorField(grid, 0.1 * rng.standard_normal((3,) + grid.shape))  # noqa: E731
    state = FluidState(time=0.0, v=leray_project(noise()).solenoidal, E=noise())
    params = MediumParams(mu=1.3, eta=0.8, kappa=0.4)
    report = fi_report(state, params, rhs(state, params, "fi_incompressible"))
    assert report.entry("faraday_lorentz").normalized_linf < 1e-12


# the laws that close at round-off on any fi state, and the one that needs
# a band-limited one (|m| <= n/4)
_EXACT_LAWS = ("faraday_lorentz", "generalized_ampere", "metacharge_continuity")


@SETTINGS
@given(grids(), seeds, st.sampled_from((1 / 6, 0.45, 0.5)))
@example(make_grid((12, 18, 6), (1.0, 2.5, 7.0)), 5, 0.5)
@example(make_grid((24, 1, 12), (3.0, 1.0, 1.5)), 6, 0.45)
def test_fi_report_matches_its_physical_space_composition(grid, seed, fraction):
    # the report forms its terms from coefficients; composed in physical
    # space from the public operators, every law reads the same norms
    v = band_limited_vector(grid, seed, fraction=fraction, amplitude=0.1,
                            solenoidal=True)
    E = band_limited_vector(grid, seed + 1, fraction=fraction, amplitude=0.1)
    state = FluidState(time=0.0, v=v, E=E)
    params = MediumParams(mu=1.3, eta=0.8, kappa=0.4)
    rates = rhs(state, params, "fi_incompressible")
    report = fi_report(state, params, rates)
    expected = ref.fi_report_reference(state, params, rates)
    assert [e.name for e in report.entries] == list(expected)
    for e in report.entries:
        l2, linf, norm = expected[e.name]
        assert abs(e.normalization - norm) <= 1e-12 * norm, e.name
        assert abs(e.l2 - l2) <= 1e-12 * norm, e.name
        assert abs(e.linf - linf) <= 1e-12 * norm, e.name
    exact = _EXACT_LAWS + (("hertz_form",) if fraction < 0.25 else ())
    for law in exact:
        assert report.entry(law).normalized_linf <= 1e-12, law


def _bitwise(got, expected) -> bool:
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _bitwise_but_zero_signs(got, expected) -> bool:
    """Equal bits wherever either value is nonzero (complex ones per part)."""
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return False
    got, expected = (np.ascontiguousarray(a).view(np.float64) for a in (got, expected))
    return bool(np.all((got.view(np.uint64) == expected.view(np.uint64))
                       | ((got == 0.0) & (expected == 0.0))))


def _writeable_copies(args):
    """Each array argument (or dict of arrays) as a fresh writeable copy:
    numpy then lets a helper write into it, and the byte comparison after
    the call sees the write."""
    def copy(a):
        if isinstance(a, np.ndarray):
            return a.copy()
        if isinstance(a, dict):
            return {i: x.copy() for i, x in a.items()}
        return a
    return [copy(a) for a in args]


def _arrays(args):
    for a in args:
        if isinstance(a, np.ndarray):
            yield a
        elif isinstance(a, dict):
            yield from a.values()


@SETTINGS
@given(grids(), seeds, st.floats(0.0, 2.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
def test_in_place_helpers_equal_out_of_place_forms_bitwise(grid, seed, kappa, mu, eta):
    # full-band noise, so the masks, the Nyquist modes and the zero-wavenumber
    # guard all act; the tensor stacks catch a divergence that assumes
    # grid-shaped entries
    g = grid
    rng = np.random.default_rng(seed)
    noise = lambda shape: band_limited_noise(g, rng, 0.5, shape, 1.0)  # noqa: E731
    params = MediumParams(mu=mu, eta=eta, kappa=kappa)
    k, real_k = _k_vector(g), ref.real_k(g)
    hats = fftn_array(g, noise((2, 3)))
    tensor_hats = fftn_array(g, noise((3, 3)))
    va, ea = noise((3,)), noise((3,))
    active = {i: hats[0][i] for i in _transform_axes(g)}
    bracket = fftn_array(g, noise((3,)))
    omega = ref.curl_hat(real_k, hats[0])

    def two_curl_stress_rate(g, hats, omega, bracket, params):
        return ref.stress_rate_hat(g, hats, bracket, params)

    def masked(factor, hats):
        return hats * factor

    # (helper, reference, args, reference args if not the helper's); the
    # package multiplies by the cached complex k and two-thirds factor, the
    # references by the real k and the boolean mask, which numpy casts
    cases = [
        (_cross_arrays, ref.cross_arrays, (va, ea)),
        (_cross_arrays, ref.cross_arrays, (k, hats[0]), (real_k, hats[0])),
        (_curl_hat, ref.curl_hat, (k, hats[0]), (real_k, hats[0])),
        (_curl_curl_hat, ref.curl_curl_hat, (k, hats[0]), (real_k, hats[0])),
        (_div_hat, ref.div_hat, (g, hats[0])),
        (_div_hat, ref.div_hat, (g, active)),
        (_div_hat, ref.div_hat, (g, tensor_hats)),
        (_div_hat, ref.div_hat, (g, hats.transpose(1, 0, 2, 3, 4))),
        (_leray_hat, ref.leray_hat, (g, hats[0])),
        (_head_hat, ref.head_hat, (g, va)),
        # curl(curl v) as ik x omega against the unchanged two-curl form
        (_stress_rate_hat, two_curl_stress_rate, (g, hats, omega, bracket, params)),
        (masked, masked, (_dealias_factor(g), hats), (dealias_mask(g), hats)),
    ]
    for helper, reference, args, *ref_args in cases:
        args = _writeable_copies(args)
        before = [a.copy() for a in _arrays(args)]
        got = helper(*args)
        expected = reference(*(_writeable_copies(ref_args[0]) if ref_args else args))
        if isinstance(expected, tuple):
            assert all(_bitwise(a, b) for a, b in zip(got, expected)), helper.__name__
        else:
            assert _bitwise(got, expected), helper.__name__
        assert all(_bitwise(a, b) for a, b in zip(_arrays(args), before)), helper.__name__
    tensor = TensorField(g, noise((3, 3)))
    expected = ifftn_array(g, ref.div_hat(g, fftn_array(g, tensor.values)))
    assert _bitwise(divergence_tensor(tensor).values, expected)


@SETTINGS
@given(grids(), seeds, st.floats(0.0, 2.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
def test_rhs_coefficient_algebra_equals_out_of_place_form_bitwise(
        grid, seed, kappa, mu, eta):
    params = MediumParams(mu=mu, eta=eta, kappa=kappa, lam=1.5, nu=0.3)
    state = _fluid_state(grid, seed, solenoidal=True)
    hats = fftn_array(grid, np.stack([state.v.values, state.E.values]))
    before = hats.copy()
    assert _bitwise(_rhs_fi_hat(grid, hats, params)[0],
                    ref.fi_rates_hat(grid, hats, params))
    assert _bitwise(hats, before)
    state = _fluid_state(grid, seed, solenoidal=False)
    for rheology in ("liquid", "solid"):
        rates = rhs(state, params, f"compressible_{rheology}")
        expected = ref.compressible_rates(state, params, rheology)
        for got, want in zip((rates.dv, rates.dE, rates.dmu), expected):
            assert _bitwise(got.values, want), rheology


@st.composite
def planar_grids(draw):
    """2D grids with the inactive axis drawn among the three, anisotropic
    boxes, and active dims that include multiples of 3."""
    dims = [draw(st.one_of(_even, st.sampled_from((6, 12, 18, 24)))) for _ in range(3)]
    dims[draw(st.sampled_from((0, 1, 2)))] = 1
    return make_grid(dims, [draw(_length) for _ in range(3)])


@SETTINGS
@given(planar_grids(), seeds, st.floats(0.0, 2.0), st.floats(0.5, 3.0),
       st.floats(0.5, 3.0))
def test_planar_stage_and_steps_equal_the_full_path_bitwise(grid, seed, kappa, mu, eta):
    # v and E in the plane: the in-plane stage's rate coefficients carry the
    # full path's bits but for the sign of a zero (the full path subtracts
    # products with its normal components, signed zeros, that the stage
    # does not form); its physical rates and pressure and three integrate
    # steps carry them all, and the normal components of the rates are zeros
    params = MediumParams(mu=mu, eta=eta, kappa=kappa)
    a, b, n = _plane(grid)
    state = _fluid_state(grid, seed, solenoidal=True)
    v, E = state.v.values.copy(), state.E.values.copy()
    v[n] = E[n] = 0.0
    state = FluidState(time=0.0, v=VectorField(grid, v), E=VectorField(grid, E))
    assert _Stepper("fi_incompressible", params, state).plane == (a, b, n)
    # the planar forms of the cross product in `_cross_arrays`' operand
    # order: pair x pair is the normal component, pair x normal the pair
    normal = np.zeros_like(v)
    normal[n] = ifftn_array(grid, _curl_hat(_k_vector(grid), fftn_array(grid, v))[n])
    assert _bitwise(_cross_arrays(v[[a, b]], E[[a, b]]), _cross_arrays(v, E)[n])
    assert _bitwise_but_zero_signs(_cross_arrays(v[[a, b]], normal[n]),
                                   _cross_arrays(v, normal)[[a, b]])
    hats = fftn_array(grid, np.stack([v, E]))
    pair_hats = fftn_array(grid, np.stack([v[[a, b]], E[[a, b]]]))
    assert _bitwise(pair_hats, hats[:, [a, b]])
    full, _, full_rates = _rhs_fi_hat(grid, hats, params)
    pair, _, pair_rates = _rhs_fi_plane_hat(grid, pair_hats, params)
    assert _bitwise_but_zero_signs(pair, full[:, [a, b]])
    for name in ("dv", "dE"):
        got = getattr(pair_rates(), name).values
        assert _bitwise(got[[a, b]], getattr(full_rates(), name).values[[a, b]]), name
        assert not got[n].any(), name
    assert _bitwise(pair_rates().pressure.values, full_rates().pressure.values)
    control = StepControl(t_end=0.015, dt=0.005)
    planar = integrate(state, params, control, "fi_incompressible")
    full_path = dataclasses.replace(SYSTEM_TABLE["fi_incompressible"], rhs_plane_hat=None)
    with mock.patch.dict(SYSTEM_TABLE, fi_incompressible=full_path):
        expected = integrate(state, params, control, "fi_incompressible")
    assert planar.time == expected.time
    assert _bitwise(planar.v.values, expected.v.values)
    assert _bitwise(planar.E.values, expected.E.values)


_times = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(grids(), seeds, _times)
def test_snapshot_round_trip_is_bitwise(grid, seed, time):
    rng = np.random.default_rng(seed)
    fields = [(name, kind(grid, rng.standard_normal(kind.COMPONENTS + grid.shape)))
              for name, kind in (("p", ScalarField), ("v", VectorField),
                                 ("s", TensorField))]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "step"
        write_snapshot(directory, fields, time)
        back, meta = read_snapshot(directory)
        assert meta["time"] == time
        assert set(back) == {name for name, _ in fields}
        for name, field in fields:
            assert type(back[name]) is type(field)
            assert back[name].grid == grid
            assert np.array_equal(back[name].values, field.values)
            raw = (directory / f"{name}.f64").read_bytes()
            assert raw == field.values.astype("<f8").tobytes()

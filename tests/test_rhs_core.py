"""The spectral core shared by the fi and compressible right-hand sides.

Pins its transform budget per RHS call and per accepted step of every
system, checks it against the composed diffops expressions it replaced,
checks that the FFT worker count does not change a single bit of its output,
and checks that `integrate` evaluates the RHS once per accepted state.  A fi
state in one plane of a 2D grid ("planar_fi") steps on its in-plane
coefficients alone (`_rhs_fi_plane_hat`); every other state on the full ones.
"""

import dataclasses

import numpy as np
import pytest
import scipy.fft

from metacont import diffops, dynamics
from metacont.cli import RunConfig, run

from metacont.diffops import (
    advect_scalar,
    curl,
    curl_curl,
    div,
    double_advection,
    grad,
    grad_vector,
    laplacian,
    leray_project,
    vector_advection,
)
from metacont.dynamics import (
    SYSTEMS as SYSTEM_TABLE,
    FluidState,
    MediumParams,
    SecondOrderState,
    StepControl,
    _Stepper,
    _rhs_fi_hat,
    _rhs_fi_plane_hat,
    integrate,
    rhs,
    upper_convected_tensor,
    upper_convected_vector,
)
from metacont.fields import (
    ScalarField,
    VectorField,
    cross,
    dealias_field,
    _plane,
    dot,
    fftn_array,
    make_grid,
    norm_linf,
    read_snapshot,
)
from metacont.scenarios import ScenarioSpec, generate

import outofplace_reference as ref
from helpers import band_limited_scalar, band_limited_vector

PARAMS = MediumParams(mu=1.3, eta=0.8, lam=2.5, kappa=0.4, nu=0.3)
SYSTEMS = ("fi_incompressible", "compressible_solid", "compressible_liquid")


def _state(grid, seed=0, solenoidal=True, planar=False):
    """Band-limited fields; with `planar`, v and E lie in the plane of the
    grid's one inactive axis (v stays solenoidal: that axis has no derivative)."""
    v = band_limited_vector(grid, seed, fraction=1 / 6, amplitude=0.1,
                            solenoidal=solenoidal)
    E = band_limited_vector(grid, seed + 1, fraction=1 / 6, amplitude=0.1)
    u = band_limited_vector(grid, seed + 2, fraction=1 / 6, amplitude=0.01)
    mu = band_limited_scalar(grid, seed + 3, fraction=1 / 6, amplitude=0.2)
    mu_field = ScalarField(grid, 1.0 + mu.values)
    if planar:
        v, E = (_in_plane(f) for f in (v, E))
    return FluidState(time=0.0, v=v, E=E, mu_field=mu_field, u=u)


def _in_plane(f):
    """f with its component along the grid's one inactive axis zeroed."""
    values = f.values.copy()
    values[_plane(f.grid)[2]] = 0.0
    return type(f)(f.grid, values)


def _cases(table):
    """Parametrize (system, shape) over the keys of a budget table, with
    the ids `shape-system`."""
    keys = sorted(table)
    return pytest.mark.parametrize("system, shape", keys,
                                   ids=[f"{shape}-{system}" for system, shape in keys])


# ---------------------------------------------------------------------------
# transform budget
# ---------------------------------------------------------------------------

# component transforms per RHS call (a call on a stack of n components counts
# n); the count depends only on which axes are active, so 16^3 stands in for
# every 3D grid.  A system's name stands for its physical RHS, `rhs` (for fi:
# v and E transformed in, the rates and pressure out); "fi_hat" is the
# coefficient RHS that one RK stage of fi evaluates.  "planar_fi" is fi's
# `rhs` at a planar state and "fi_plane_hat" the stage it evaluates there:
# 7 components in (3 when the physical state is given) and 5 out.
BUDGET = {
    ("fi_incompressible", "2d"): 28, ("fi_incompressible", "3d"): 28,
    ("fi_hat", "2d"): 20, ("fi_hat", "3d"): 20,
    ("planar_fi", "2d"): 18, ("fi_plane_hat", "2d"): 12,
    ("compressible_solid", "2d"): 33, ("compressible_solid", "3d"): 36,
    ("compressible_liquid", "2d"): 31, ("compressible_liquid", "3d"): 33,
    ("second_order", "2d"): 50, ("second_order", "3d"): 62,
    ("upper_convected_vector", "2d"): 13, ("upper_convected_vector", "3d"): 13,
    ("linear_navier", "2d"): 6, ("linear_navier", "3d"): 6,
    # not RHS calls: operators whose derivatives along an inactive axis are
    # exact zeros that are filled in, not transformed
    ("grad", "2d"): 3, ("grad", "3d"): 4,
    ("grad_vector", "2d"): 9, ("grad_vector", "3d"): 12,
    ("upper_convected_tensor", "2d"): 54, ("upper_convected_tensor", "3d"): 66,
}
# component transforms per accepted step of `integrate`
STEP_BUDGET = {
    ("fi_incompressible", "2d"): 80, ("fi_incompressible", "3d"): 80,
    ("planar_fi", "2d"): 48,
    ("compressible_liquid", "2d"): 124, ("compressible_liquid", "3d"): 132,
    ("compressible_solid", "2d"): 132, ("compressible_solid", "3d"): 144,
    ("second_order", "2d"): 176, ("second_order", "3d"): 224,
    ("linear_navier", "2d"): 24, ("linear_navier", "3d"): 24,
    ("classical_maxwell", "2d"): 48, ("classical_maxwell", "3d"): 48,
}
BUDGET_GRIDS = {
    "2d": make_grid((64, 64, 1), (2 * np.pi,) * 3),
    "3d": make_grid((16, 16, 16), (2 * np.pi,) * 3),
}
# inside every system's stiff limits on BUDGET_GRIDS under PARAMS; the
# tightest is compressible_liquid's diffusive limit on 64x64,
# 2.78 / ((0.3 + 1.6) / 1.3 x 1922) = 9.9e-4
STABLE_DT = 5e-4
# every forward and inverse entry point of scipy.fft; the first six are the
# complex-to-complex ones
C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_ENTRY_POINTS = C2C + ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                          "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")


def _count_transforms(monkeypatch, fn) -> int:
    """Component transforms of fn(); fails on a complex-to-complex call."""
    calls = []
    for name in FFT_ENTRY_POINTS:
        original = getattr(scipy.fft, name)

        def counted(x, *args, _original=original, _name=name, **kwargs):
            # a call on a stack transforms each of its components
            calls.append((_name, int(np.prod(np.shape(x)[:-3]))))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    try:
        fn()
    finally:
        monkeypatch.undo()
    names = {name for name, _ in calls}
    assert not names & set(C2C), sorted(names)
    return sum(n for _, n in calls)


@_cases(BUDGET)
def test_transform_budget_per_rhs_call(system, shape, monkeypatch):
    g = BUDGET_GRIDS[shape]
    state = _state(g, planar=system in ("planar_fi", "fi_plane_hat"))
    if system == "second_order":
        state = SecondOrderState(time=0.0, v=state.v,
                                 v_t=rhs(state, PARAMS, "fi_incompressible").dv)
    if system == "fi_hat":
        hats = fftn_array(g, np.stack([state.v.values, state.E.values]))
        call = lambda: _rhs_fi_hat(g, hats, PARAMS)  # noqa: E731
    elif system == "fi_plane_hat":
        pair = list(_plane(g)[:2])
        hats = fftn_array(g, np.stack([state.v.values[pair], state.E.values[pair]]))
        call = lambda: _rhs_fi_plane_hat(g, hats, PARAMS)  # noqa: E731
    elif system == "planar_fi":
        call = lambda: rhs(state, PARAMS, "fi_incompressible")  # noqa: E731
    elif system == "upper_convected_vector":
        call = lambda: upper_convected_vector(state.E, state.v)  # noqa: E731
    elif system == "grad":
        call = lambda: grad(state.mu_field)  # noqa: E731
    elif system == "grad_vector":
        call = lambda: grad_vector(state.v)  # noqa: E731
    elif system == "upper_convected_tensor":
        sigma = grad_vector(state.E)
        call = lambda: upper_convected_tensor(sigma, state.v)  # noqa: E731
    else:
        call = lambda: rhs(state, PARAMS, system)  # noqa: E731
    assert _count_transforms(monkeypatch, call) == BUDGET[(system, shape)]


def _system_state(system, grid):
    if system == "planar_fi":
        return _state(grid, seed=5, planar=True)
    kind = "compression_pulse" if system == "linear_navier" else "random_solenoidal"
    spec = ScenarioSpec(kind, amplitude=1e-2, seed=5)
    return SYSTEM_TABLE[system].initial(generate(spec, grid, PARAMS), PARAMS)


def _step_transforms(monkeypatch, state, system):
    """Component transforms of one accepted step of `integrate`."""
    def steps(n):
        control = StepControl(t_end=n * STABLE_DT, dt=STABLE_DT)
        return _count_transforms(
            monkeypatch, lambda: integrate(state, PARAMS, control, system))

    return steps(3) - steps(2)


@_cases(STEP_BUDGET)
def test_transform_budget_per_step(system, shape, monkeypatch):
    state = _system_state(system, BUDGET_GRIDS[shape])
    name = "fi_incompressible" if system == "planar_fi" else system
    assert _step_transforms(monkeypatch, state, name) == STEP_BUDGET[(system, shape)]


@pytest.mark.parametrize("case", ("v_off_plane", "E_off_plane", "3d", "1d"))
def test_a_state_off_the_plane_steps_on_all_components(case, monkeypatch):
    # one value of 1e-300 off the plane, or a grid with no inactive axis or
    # with two, and fi steps on all three components at 80 per step
    if case.endswith("off_plane"):
        g = BUDGET_GRIDS["2d"]
        state = _state(g, seed=5, planar=True)
        name = case[0]
        values = getattr(state, name).values.copy()
        values[_plane(g)[2], 3, 5, 0] = 1e-300
        state = dataclasses.replace(state, **{name: VectorField(g, values)})
    else:
        g = BUDGET_GRIDS["3d"] if case == "3d" else make_grid((32, 1, 1), (3.0, 1.0, 1.0))
        state = _state(g, seed=5)
    assert _Stepper("fi_incompressible", PARAMS, state).plane is None
    assert _step_transforms(monkeypatch, state, "fi_incompressible") == 80


# ---------------------------------------------------------------------------
# equivalence with the composed diffops expressions
# ---------------------------------------------------------------------------

def _bracket(v, E, form="maxwell"):
    """v.grad E - E.grad v + (div v) E composed from public operators: in
    the Maxwell form v div E - curl(v x E) that the core evaluates, or in the
    convective form.  The two agree on inputs band-limited to |m| <= n/4."""
    if form == "maxwell":
        return dealias_field(v * div(E)) - curl(dealias_field(cross(v, E)))
    return (vector_advection(v, E) - vector_advection(E, v)
            + dealias_field(E * div(v)))


def _momentum(v, form="maxwell"):
    """-(v.grad)v composed from public operators: in the rotational form
    dealias(v x curl v) - grad(dealias(|v|^2/2)) that the core evaluates,
    or in the convective form.  The two agree on inputs band-limited to
    |m| <= n/4."""
    if form == "maxwell":
        return (dealias_field(cross(v, curl(v)))
                - grad(dealias_field(dot(v, v) * 0.5)))
    return -vector_advection(v, v)


def _oracle(system, state, params=PARAMS, form="maxwell"):
    """The right-hand sides as compositions of public diffops operators;
    `form` "convective" spells the momentum, the bracket and the density
    rate the old way, which holds only on inputs band-limited to
    |m| <= n/4.  fi's pressure is mu times the potential that the projection
    of the whole momentum removes."""
    v, E = state.v, state.E
    dE = curl_curl(v) * params.eta - _bracket(v, E, form) - E * params.kappa
    if system == "fi_incompressible":
        projected = leray_project(E * (-1.0 / params.mu) + _momentum(v, form))
        return {"dv": projected.solenoidal, "dE": dE,
                "pressure": projected.potential * params.mu}
    mu_f = state.mu_field
    if system == "compressible_liquid":
        dilational = div(v) * (params.nu + 2.0 * params.zeta)
    else:
        dilational = div(state.u) * (params.lam + 2.0 * params.eta)
    inv_mu = ScalarField(v.grid, 1.0 / mu_f.values)
    dv = dealias_field((grad(dilational) - E) * inv_mu) + _momentum(v, form)
    if form == "maxwell":
        dmu = -div(dealias_field(v * mu_f))
    else:
        dmu = -advect_scalar(v, mu_f) - dealias_field(mu_f * div(v))
    return {"dv": dv, "dE": dE, "dmu": dmu}


EQUIVALENCE_GRIDS = {
    "cubic": make_grid((16, 16, 16), (2 * np.pi,) * 3),
    "anisotropic": make_grid((16, 8, 12), (2 * np.pi, 3.0, 5.5)),
    "nz1": make_grid((32, 24, 1), (4.0, 2 * np.pi, 1.0)),
    "inactive_middle": make_grid((16, 1, 8), (3.0, 1.0, 2 * np.pi)),
    "inactive_x": make_grid((1, 12, 20), (1.0, 5.0, 2 * np.pi)),
}
PLANAR_GRIDS = ("inactive_middle", "inactive_x", "nz1")
CORE_CASES = ([(grid, system) for grid in sorted(EQUIVALENCE_GRIDS) for system in SYSTEMS]
              + [(grid, "planar_fi") for grid in PLANAR_GRIDS])


@pytest.mark.parametrize("grid_name, system", CORE_CASES,
                         ids=[f"{grid}-{system}" for grid, system in CORE_CASES])
def test_core_matches_composed_operators(system, grid_name):
    # the fi RHS rejects a divergent v; the compressible ones get one, so
    # that every div v term is exercised
    planar = system == "planar_fi"
    system = "fi_incompressible" if planar else system
    state = _state(EQUIVALENCE_GRIDS[grid_name], seed=7,
                   solenoidal=system == "fi_incompressible", planar=planar)
    assert (_Stepper(system, PARAMS, state).plane is not None) == planar
    rates = rhs(state, PARAMS, system)
    for name, expected in _oracle(system, state).items():
        scale = norm_linf(expected)
        assert scale > 0.0, name
        rel = norm_linf(getattr(rates, name) - expected) / scale
        assert rel < 1e-12, (name, rel)
    if planar:
        n = _plane(state.v.grid)[2]
        assert not rates.dv.values[n].any() and not rates.dE.values[n].any()


@pytest.mark.parametrize("grid_name", sorted(EQUIVALENCE_GRIDS))
def test_upper_convected_vector_matches_composed_operators(grid_name):
    state = _state(EQUIVALENCE_GRIDS[grid_name], seed=11, solenoidal=False)
    expected = _bracket(state.v, state.E)
    got = upper_convected_vector(state.E, state.v)
    assert norm_linf(got - expected) < 1e-12 * norm_linf(expected)


@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS))
def test_linear_navier_matches_composed_operators(shape):
    state = _state(BUDGET_GRIDS[shape], seed=13, solenoidal=False)
    u = state.u
    expected = (grad(div(u)) * (PARAMS.lam + 2.0 * PARAMS.eta)
                - curl_curl(u) * PARAMS.eta) * (1.0 / PARAMS.mu)
    rates = rhs(state, PARAMS, "linear_navier")
    assert rates.du is state.v
    assert norm_linf(rates.dv - expected) < 1e-12 * norm_linf(expected)


@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS))
def test_second_order_matches_composed_operators(shape):
    fi_state = _state(BUDGET_GRIDS[shape], seed=17)
    v, v_t = fi_state.v, rhs(fi_state, PARAMS, "fi_incompressible").dv
    raw = (laplacian(v) * (PARAMS.eta / PARAMS.mu)
           - vector_advection(v, v_t) * 2.0
           - double_advection(v, v) * (1.0 / PARAMS.mu))
    rates = rhs(SecondOrderState(time=0.0, v=v, v_t=v_t), PARAMS, "second_order")
    for got, expected in ((rates.dv, v_t), (rates.dv_t, leray_project(raw).solenoidal)):
        assert norm_linf(got - expected) < 1e-12 * norm_linf(expected)


@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS))
def test_cached_second_derivative_symbols_keep_second_order_bitwise(shape, monkeypatch):
    # the six symbols are cached once per grid as read-only complex128; the
    # real ones, which numpy cast to complex on every call, gave the same bits
    g = BUDGET_GRIDS[shape]
    symbols = diffops._second_derivative_symbols(g)
    assert symbols.dtype == np.complex128 and not symbols.flags.writeable
    assert diffops._second_derivative_symbols(g) is symbols
    state = _system_state("second_order", g)
    control = StepControl(t_end=2 * STABLE_DT, dt=STABLE_DT)

    def final():
        out = integrate(state, PARAMS, control, "second_order")
        return out.v.values.tobytes(), out.v_t.values.tobytes()

    cached = final()
    monkeypatch.setattr(diffops, "_second_derivative_symbols",
                        ref.second_derivative_symbols)
    assert final() == cached


# ---------------------------------------------------------------------------
# thread-count determinism
# ---------------------------------------------------------------------------

def _digest(rates):
    return [value.values.tobytes() for value in vars(rates).values()
            if value is not None]


THREAD_CASES = [(system, shape) for system in ("fi_incompressible", "compressible_solid")
                for shape in sorted(BUDGET_GRIDS)] + [("planar_fi", "2d")]


@pytest.mark.parametrize("system, shape", THREAD_CASES,
                         ids=[f"{shape}-{system}" for system, shape in THREAD_CASES])
def test_rhs_bitwise_equal_across_thread_counts(system, shape, monkeypatch):
    state = _state(BUDGET_GRIDS[shape], seed=3, planar=system == "planar_fi")
    system = "fi_incompressible" if system == "planar_fi" else system
    monkeypatch.setenv("METACONT_THREADS", "1")
    one = _digest(rhs(state, PARAMS, system))
    monkeypatch.setenv("METACONT_THREADS", "2")
    two = _digest(rhs(state, PARAMS, system))
    assert one == two


@pytest.mark.parametrize("shape", sorted(BUDGET_GRIDS) + ["2d_planar"])
def test_fi_integrate_bitwise_equal_across_thread_counts(shape, monkeypatch):
    state = _system_state("planar_fi" if shape == "2d_planar" else "fi_incompressible",
                          BUDGET_GRIDS[shape[:2]])
    control = StepControl(t_end=0.05, dt=0.01)
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("METACONT_THREADS", threads)
        out = integrate(state, PARAMS, control, "fi_incompressible")
        digests.append([out.v.values.tobytes(), out.E.values.tobytes()])
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# one RHS evaluation per accepted state
# ---------------------------------------------------------------------------

# the function each system's stepper calls once per RK stage
STAGE_RHS = {"fi_incompressible": "_rhs_fi_hat",
             "compressible_liquid": "_rhs_compressible",
             "compressible_solid": "_rhs_compressible",
             "second_order": "_rhs_second_order_hat",
             "linear_navier": "_rhs_linear_navier",
             "classical_maxwell": "_rhs_classical_maxwell"}


def _count_evaluations(monkeypatch, name):
    calls = []
    original = getattr(dynamics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, counted)
    return calls


@pytest.mark.parametrize("system", sorted(STAGE_RHS))
@pytest.mark.parametrize("observed", ("none", "every", "final", "states"))
def test_integrate_evaluates_the_rhs_four_times_per_step(system, observed,
                                                         monkeypatch):
    state = _system_state(system, BUDGET_GRIDS["2d"])
    calls = _count_evaluations(monkeypatch, STAGE_RHS[system])
    n = 5
    control = StepControl(t_end=n * STABLE_DT, dt=STABLE_DT)

    def observer(i, s, rates):
        if observed == "every" or (observed == "final" and i == n):
            rates()

    integrate(state, PARAMS, control, system,
              None if observed == "none" else observer)
    # every accepted state, the final one included, is evaluated once, and
    # that evaluation is the next step's first stage
    assert len(calls) == 4 * n + 1


def test_pressure_at_step_n_is_the_rhs_pressure_of_state_n(tmp_path, monkeypatch):
    calls = _count_evaluations(monkeypatch, "_rhs_fi_hat")
    out = tmp_path / "out"
    doc = {"grid": {"dims": [32, 32, 1]}, "params": {"kappa": 0.1},
           "system": "fi_incompressible",
           "scenario": {"kind": "random_solenoidal", "amplitude": 0.05, "seed": 2},
           "control": {"t_end": 0.1, "dt": 0.02},
           "outputs": {"snapshot_every": 1, "out_dir": str(out)}}
    run(RunConfig.from_dict(doc))
    n_steps = 5
    assert len(calls) == 4 * n_steps + 1
    grid = make_grid((32, 32, 1), (2 * np.pi,) * 3)
    previous = None
    for n in range(n_steps + 1):
        # the evaluation at accepted state n is call 4n; evaluate its inputs again
        args = calls[4 * n]
        expected = _rhs_fi_hat(*args)[2]().pressure.values
        fields, meta = read_snapshot(out / "snapshots" / f"step_{n:08d}")
        written = fields["p"]
        assert written.grid == grid
        np.testing.assert_array_equal(written.values, expected)
        assert meta["time"] == pytest.approx(0.02 * n)
        if previous is not None:
            assert not np.array_equal(expected, previous)  # not one step stale
        previous = expected

"""Electromagnetic variables of a mechanical state and residuals of the derived laws.

The mapping is: E is the negative shear-stress vector carried by the fluid
state, B = mu curl(v) (dynamic vorticity), H = curl(v), the metacharge is
rho = div(E), and the metacurrent is J = rho v.

Two groups of laws are checked:

* exact discrete corollaries of the incompressible system's right-hand side
  (Faraday-Lorentz, its Hertz form, the generalized Ampere law, metacharge
  continuity).  The RHS forms the stress rate's bracket in the Maxwell form
  v div E - curl(v x E), from the same dealiased products J = v div E and
  v x E that the laws read, and div(curl .) = 0 spectrally, so generalized
  Ampere and metacharge continuity close at rounding level on any state.
  The fi RHS forms the momentum as the dealiased P[v x curl v] less a
  gradient, so Faraday-Lorentz closes at rounding level on any fi state too.
  The Hertz form dealiases v.grad B and B.grad v separately, so it needs
  band-limited states (|m| <= n/4) and reads 0.09-1.1 on full-band ones.
  Compressible Faraday-Lorentz is not exact, because its velocity rate
  divides the force by the density mu_field;
* linear-limit laws (classical Faraday and the displacement-current law):
  their normalized residuals scale linearly with the state amplitude.

The stationary progenitors (Biot-Savart, Ohm-Ampere, Ampere in vacuo) only
hold in quasi-static limits, so they are reported as plain residuals without
a pass/fail bound; their normalized size measures how far the state is from
the quasi-static regime.

All rate inputs (dE/dt, dB/dt, drho/dt) must come from an integrator RHS
evaluation, never from finite differencing of snapshots, so law-verification
error is not polluted by time-discretization error.

A report reads the physical state and rates alone, never an RHS stage's own
products, so the exact corollaries stay checks and not tautologies.  Its
terms are formed in coefficient space (`_Terms`): v, E, dv/dt and dE/dt are
each forward-transformed once, every derivative multiplies coefficients
(B = mu ik x v_hat, curl B = ik x B_hat, v.grad B = P[v_a ik_a B_hat]), the
curl or divergence of a dealiased product is taken on its masked
coefficients, and each term leaves coefficient space through one inverse
transform of at most three components.  Each term's L2 norm is taken once
per report, and each shared term is dropped after the last law that reads
it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .diffops import _contract, _curl_hat, _div_hat, _ik, curl, div
from .fields import (
    ScalarField,
    VectorField,
    _cross_arrays,
    _dealias_factor,
    _k_vector,
    atomic_write_text,
    dealias_field,
    fftn_array,
    ifftn_array,
    norm_l2,
    norm_linf,
)

if TYPE_CHECKING:  # annotations only: dynamics imports this module
    from .dynamics import FluidState, MaxwellState, MediumParams

__all__ = [
    "EmState",
    "LawResidual",
    "LawResidualReport",
    "LAW_NAMES",
    "extract_em",
    "fi_report",
    "classical_report",
    "report_to_dict",
    "write_reports_ndjson",
    "write_reports_csv",
]


@dataclass(frozen=True)
class EmState:
    """Electromagnetic view of a mechanical state."""

    E: VectorField
    B: VectorField
    H: VectorField
    rho: ScalarField
    J: VectorField


def extract_em(state: FluidState, params: MediumParams) -> EmState:
    """Map a fluid state to its electromagnetic variables."""
    if state.E is None:
        raise ValueError("state carries no stress vector E")
    H = curl(state.v)
    rho = div(state.E)
    return EmState(
        E=state.E,
        B=H * params.mu,
        H=H,
        rho=rho,
        J=dealias_field(state.v * rho),
    )


# ---------------------------------------------------------------------------
# the laws: each maps the terms of one state to (residual, {term_name: field})
# ---------------------------------------------------------------------------

class _Terms:
    """The terms of the laws at one state, formed from its physical v and E
    and its rates dE/dt and dv/dt alone, or from a given B and dB/dt.

    Each input field is forward-transformed once.  Every term is formed from
    those coefficients with one inverse transform, and no term passes
    through physical space between two spectral operators: B_hat =
    mu ik x v_hat, so curl B = ik x B_hat and d_a B = ik_a B_hat; with P the
    two-thirds mask, curl(v x B) is ik x P F(v x B), curl(v x E) is
    ik x P F(v x E), J_hat = P F(v rho) and div J = ik . J_hat.  A term that
    several laws read is cached, and `_report` drops it after the last law
    that reads it (`_DROPPED_AFTER`); a law forms the terms only it reads.
    The helpers `inverse`, `curl`, `div` and `advection` take coefficients
    and return grid fields."""

    def __init__(self, params: MediumParams, v: VectorField, E: VectorField,
                 dE_dt: VectorField, dv_dt: VectorField | None = None,
                 B: VectorField | None = None, dB_dt: VectorField | None = None):
        g = self.grid = v.grid
        self.params, self.v, self.E, self.dE_dt, self.dv_dt = params, v, E, dE_dt, dv_dt
        if B is not None:
            self.B, self.B_hat, self.dB_dt = B, fftn_array(g, B.values), dB_dt
        # rho is formed at once, so that E_hat is dropped after the first law
        self.E_hat = fftn_array(g, E.values)
        self.rho = self.div(self.E_hat)

    def inverse(self, kind, hat: np.ndarray):
        return kind._wrap(self.grid, ifftn_array(self.grid, hat))

    def curl(self, hat: np.ndarray) -> VectorField:
        return self.inverse(VectorField, _curl_hat(_k_vector(self.grid), hat))

    def div(self, hat: np.ndarray) -> ScalarField:
        return self.inverse(ScalarField, _div_hat(self.grid, hat))

    def dealiased_hat(self, values: np.ndarray) -> np.ndarray:
        hat = fftn_array(self.grid, values)
        hat *= _dealias_factor(self.grid)
        return hat

    def advection(self, w: VectorField, hat: np.ndarray) -> VectorField:
        """P[(w . grad) f] from the coefficients of f."""
        products = _contract(self.grid, w.values, _ik(self.grid), hat)
        return self.inverse(VectorField, self.dealiased_hat(products))

    def _mu_curl_hat(self, hat: np.ndarray) -> np.ndarray:
        out = _curl_hat(_k_vector(self.grid), hat)
        out *= self.params.mu
        return out

    @functools.cached_property
    def v_hat(self) -> np.ndarray:
        return fftn_array(self.grid, self.v.values)

    @functools.cached_property
    def B_hat(self) -> np.ndarray:
        return self._mu_curl_hat(self.v_hat)

    @functools.cached_property
    def B(self) -> VectorField:
        return self.inverse(VectorField, self.B_hat)

    @functools.cached_property
    def dB_dt(self) -> VectorField:
        dv_hat = fftn_array(self.grid, self.dv_dt.values)
        return self.inverse(VectorField, self._mu_curl_hat(dv_hat))

    @functools.cached_property
    def curl_E(self) -> VectorField:
        return self.curl(self.E_hat)

    @functools.cached_property
    def curl_B(self) -> VectorField:
        return self.curl(self.B_hat)

    @functools.cached_property
    def J_hat(self) -> np.ndarray:
        return self.dealiased_hat(self.v.values * self.rho.values)

    @functools.cached_property
    def J(self) -> VectorField:
        return self.inverse(VectorField, self.J_hat)

    @functools.cached_property
    def vxE_hat(self) -> np.ndarray:
        return self.dealiased_hat(_cross_arrays(self.v.values, self.E.values))


def _faraday(t: _Terms):
    return t.curl_E + t.dB_dt, {"curl_E": t.curl_E, "dB_dt": t.dB_dt}


def _displacement_current(t: _Terms):
    displacement = t.curl_B * (t.params.c ** 2)
    return t.dE_dt - displacement, {"dE_dt": t.dE_dt, "c2_curl_B": displacement}


def _faraday_lorentz(t: _Terms):
    motional = t.curl(t.dealiased_hat(_cross_arrays(t.v.values, t.B.values)))
    return t.curl_E - motional + t.dB_dt, {
        "curl_E": t.curl_E,
        "curl_vxB": motional,
        "dB_dt": t.dB_dt,
    }


def _hertz_form(t: _Terms):
    """dB/dt + v.grad B - B.grad v + curl E (solenoidal v and B)."""
    conv = t.advection(t.v, t.B_hat)
    stretch = t.advection(t.B, t.v_hat)
    return t.dB_dt + conv - stretch + t.curl_E, {
        "dB_dt": t.dB_dt,
        "v_grad_B": conv,
        "B_grad_v": stretch,
        "curl_E": t.curl_E,
    }


def _generalized_ampere(t: _Terms):
    """dE/dt - curl(v x E) + kappa E + v (div E) - c^2 curl B, where v (div E)
    is the metacurrent J of the state whose velocity is v."""
    motional = t.curl(t.vxE_hat)
    attenuation = t.E * t.params.kappa
    convective = t.J
    displacement = t.curl_B * (t.params.c ** 2)
    residual = t.dE_dt - motional + attenuation + convective - displacement
    return residual, {
        "dE_dt": t.dE_dt,
        "curl_vxE": motional,
        "kappa_E": attenuation,
        "J": convective,
        "c2_curl_B": displacement,
    }


def _metacharge_continuity(t: _Terms):
    rate = t.div(fftn_array(t.grid, t.dE_dt.values))
    transport = t.div(t.J_hat)
    attenuation = t.rho * t.params.kappa
    return rate + transport + attenuation, {
        "drho_dt": rate,
        "div_rho_v": transport,
        "kappa_rho": attenuation,
    }


def _biot_savart(t: _Terms):
    """B + (v x E)/c^2: quasi-stationary, kappa = 0, charge-free states."""
    motional = t.inverse(VectorField, t.vxE_hat) * (1.0 / t.params.c ** 2)
    return t.B + motional, {"B": t.B, "vxE_over_c2": motional}


def _ohm_ampere(t: _Terms):
    """curl B - (kappa/c^2) E: stationary velocity-free states."""
    conduction = t.E * (t.params.kappa / t.params.c ** 2)
    return t.curl_B - conduction, {"curl_B": t.curl_B, "kappa_E_over_c2": conduction}


def _ampere_vacuo(t: _Terms):
    """c^2 curl B - J: the same regime as Biot-Savart."""
    displacement = t.curl_B * (t.params.c ** 2)
    return displacement - t.J, {"c2_curl_B": displacement, "J": t.J}


# every law by name, in report (and CSV row) order
_LAWS = {
    "faraday": _faraday,
    "displacement_current": _displacement_current,
    "faraday_lorentz": _faraday_lorentz,
    "hertz_form": _hertz_form,
    "generalized_ampere": _generalized_ampere,
    "metacharge_continuity": _metacharge_continuity,
    "biot_savart": _biot_savart,
    "ohm_ampere": _ohm_ampere,
    "ampere_vacuo": _ampere_vacuo,
}
LAW_NAMES = tuple(_LAWS)
# the cached terms of `_Terms` that no later law reads, by the law that reads
# them last
_DROPPED_AFTER = {
    "faraday": ("E_hat",),
    "hertz_form": ("curl_E", "dB_dt", "v_hat", "B_hat"),
    "metacharge_continuity": ("rho", "J_hat"),
    "biot_savart": ("B", "vxE_hat"),
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawResidual:
    """Residual norms of one law; normalization is the L2 norm of its largest term."""

    name: str
    l2: float
    linf: float
    normalization: float

    def _normalized(self, value: float) -> float:
        if self.normalization == 0.0:
            return 0.0 if value == 0.0 else math.inf
        return value / self.normalization

    @property
    def normalized_l2(self) -> float:
        return self._normalized(self.l2)

    @property
    def normalized_linf(self) -> float:
        return self._normalized(self.linf)


@dataclass(frozen=True)
class LawResidualReport:
    """All registered law residuals at one time instant."""

    time: float
    entries: tuple[LawResidual, ...]

    def entry(self, name: str) -> LawResidual:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _report(t: _Terms, time: float) -> LawResidualReport:
    """Residual norms of every law in `_LAWS` at the state of `t`.

    Each entry records the raw L2 and L-inf residual norms together with the
    L2 norm of the law's largest term; a 0/0 normalized residual is reported
    as 0.  A term name stands for one field in every law, so each term's
    norm is taken once."""
    norms, entries = {}, []
    for name, law in _LAWS.items():
        residual, terms = law(t)
        norms.update((term, norm_l2(field)) for term, field in terms.items()
                      if term not in norms)
        entries.append(LawResidual(name=name, l2=norm_l2(residual),
                                   linf=norm_linf(residual),
                                   normalization=max(norms[term] for term in terms)))
        # a dropped term is freed before the next law runs
        del residual, terms
        for term in _DROPPED_AFTER.get(name, ()):
            del vars(t)[term]
    return LawResidualReport(time=time, entries=tuple(entries))


def fi_report(state: FluidState, params: MediumParams, rates) -> LawResidualReport:
    """Report for an incompressible/compressible fluid state.

    `rates` must provide dv and dE from the system RHS at this state; the
    B rate is mu curl(dv/dt).
    """
    return _report(_Terms(params, state.v, state.E, rates.dE, rates.dv), state.time)


def classical_report(state: MaxwellState, params: MediumParams,
                     rates) -> LawResidualReport:
    """Report for a classical reference state (velocity-free)."""
    t = _Terms(params, VectorField.zeros(state.E.grid), state.E, rates.dE,
               B=state.B, dB_dt=rates.dB)
    return _report(t, state.time)


def report_to_dict(report: LawResidualReport) -> dict:
    return {
        "time": report.time,
        "laws": {
            e.name: {
                "l2": e.l2,
                "linf": e.linf,
                "norm": e.normalization,
                "normalized_l2": e.normalized_l2,
                "normalized_linf": e.normalized_linf,
            }
            for e in report.entries
        },
    }


def write_reports_ndjson(reports, path) -> None:
    """One JSON object per time sample, newline-delimited."""
    lines = [json.dumps(report_to_dict(r), sort_keys=True) for r in reports]
    atomic_write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


def write_reports_csv(reports, path) -> None:
    """CSV export with columns (time, law, l2, linf, norm), CRLF row endings."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["time", "law", "l2", "linf", "norm"])
    for r in reports:
        for e in r.entries:
            writer.writerow([repr(r.time), e.name, repr(e.l2), repr(e.linf),
                             repr(e.normalization)])
    atomic_write_text(Path(path), text.getvalue())

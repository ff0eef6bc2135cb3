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
  The Hertz form composes separately dealiased v.grad B and B.grad v, so it
  needs band-limited states (|m| <= n/4) and reads 0.09-1.1 on full-band
  ones.  Compressible Faraday-Lorentz is not exact, because its velocity
  rate divides the force by the density mu_field;
* linear-limit laws (classical Faraday and the displacement-current law):
  their normalized residuals scale linearly with the state amplitude.

The stationary progenitors (Biot-Savart, Ohm-Ampere, Ampere in vacuo) only
hold in quasi-static limits, so they are reported as plain residuals without
a pass/fail bound; their normalized size measures how far the state is from
the quasi-static regime.

All rate inputs (dE/dt, dB/dt, drho/dt) must come from an integrator RHS
evaluation, never from finite differencing of snapshots, so law-verification
error is not polluted by time-discretization error.
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

from .diffops import curl, div, vector_advection
from .fields import (
    Field,
    ScalarField,
    VectorField,
    atomic_write_text,
    cross,
    dealias_field,
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
    "em_from_maxwell",
    "full_report",
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


def em_from_maxwell(state: MaxwellState, params: MediumParams) -> EmState:
    """Electromagnetic view of the classical reference state (no velocity)."""
    return EmState(
        E=state.E,
        B=state.B,
        H=state.B * (1.0 / params.mu),
        rho=div(state.E),
        J=VectorField.zeros(state.E.grid),
    )


# ---------------------------------------------------------------------------
# the laws: each maps one RHS evaluation to (residual, {term_name: field})
# ---------------------------------------------------------------------------

@dataclass
class _Terms:
    """One RHS evaluation of one state, with the terms several laws share
    (curl E, curl B, the dealiased v x E and drho/dt = div(dE/dt)) each
    formed at most once."""

    em: EmState
    v: VectorField
    dE_dt: VectorField
    dB_dt: VectorField
    params: MediumParams

    @functools.cached_property
    def curl_E(self) -> VectorField:
        return curl(self.em.E)

    @functools.cached_property
    def curl_B(self) -> VectorField:
        return curl(self.em.B)

    @functools.cached_property
    def v_cross_E(self) -> VectorField:
        return dealias_field(cross(self.v, self.em.E))

    @functools.cached_property
    def drho_dt(self) -> ScalarField:
        return div(self.dE_dt)


def _faraday(t: _Terms):
    return t.curl_E + t.dB_dt, {"curl_E": t.curl_E, "dB_dt": t.dB_dt}


def _displacement_current(t: _Terms):
    displacement = t.curl_B * (t.params.c ** 2)
    return t.dE_dt - displacement, {"dE_dt": t.dE_dt, "c2_curl_B": displacement}


def _faraday_lorentz(t: _Terms):
    motional = curl(dealias_field(cross(t.v, t.em.B)))
    return t.curl_E - motional + t.dB_dt, {
        "curl_E": t.curl_E,
        "curl_vxB": motional,
        "dB_dt": t.dB_dt,
    }


def _hertz_form(t: _Terms):
    """dB/dt + v.grad B - B.grad v + curl E (solenoidal v and B)."""
    conv = vector_advection(t.v, t.em.B)
    stretch = vector_advection(t.em.B, t.v)
    return t.dB_dt + conv - stretch + t.curl_E, {
        "dB_dt": t.dB_dt,
        "v_grad_B": conv,
        "B_grad_v": stretch,
        "curl_E": t.curl_E,
    }


def _generalized_ampere(t: _Terms):
    """dE/dt - curl(v x E) + kappa E + v (div E) - c^2 curl B, where v (div E)
    is the metacurrent em.J of the state whose velocity is v."""
    motional = curl(t.v_cross_E)
    attenuation = t.em.E * t.params.kappa
    convective = t.em.J
    displacement = t.curl_B * (t.params.c ** 2)
    residual = t.dE_dt - motional + attenuation + convective - displacement
    return residual, {
        "dE_dt": t.dE_dt,
        "curl_vxE": motional,
        "kappa_E": attenuation,
        "v_div_E": convective,
        "c2_curl_B": displacement,
    }


def _metacharge_continuity(t: _Terms):
    transport = div(t.em.J)
    attenuation = t.em.rho * t.params.kappa
    return t.drho_dt + transport + attenuation, {
        "drho_dt": t.drho_dt,
        "div_rho_v": transport,
        "kappa_rho": attenuation,
    }


def _biot_savart(t: _Terms):
    """B + (v x E)/c^2: quasi-stationary, kappa = 0, charge-free states."""
    motional = t.v_cross_E * (1.0 / t.params.c ** 2)
    return t.em.B + motional, {"B": t.em.B, "vxE_over_c2": motional}


def _ohm_ampere(t: _Terms):
    """curl B - (kappa/c^2) E: stationary velocity-free states."""
    conduction = t.em.E * (t.params.kappa / t.params.c ** 2)
    return t.curl_B - conduction, {"curl_B": t.curl_B, "kappa_E_over_c2": conduction}


def _ampere_vacuo(t: _Terms):
    """c^2 curl B - J: the same regime as Biot-Savart."""
    displacement = t.curl_B * (t.params.c ** 2)
    return displacement - t.em.J, {"c2_curl_B": displacement, "J": t.em.J}


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


def _entry(name: str, residual: Field, terms: dict) -> LawResidual:
    normalization = max(norm_l2(t) for t in terms.values())
    return LawResidual(
        name=name,
        l2=norm_l2(residual),
        linf=norm_linf(residual),
        normalization=normalization,
    )


def full_report(em: EmState, v: VectorField, dE_dt: VectorField,
                dB_dt: VectorField, params: MediumParams,
                time: float) -> LawResidualReport:
    """Residual norms of every law in `_LAWS` from one RHS evaluation.

    Each entry records the raw L2 and L-inf residual norms together with the
    L2 norm of the law's largest term; a 0/0 normalized residual is reported as 0.
    """
    t = _Terms(em, v, dE_dt, dB_dt, params)
    return LawResidualReport(time=time, entries=tuple(
        _entry(name, *law(t)) for name, law in _LAWS.items()))


def fi_report(state: FluidState, params: MediumParams, rates) -> LawResidualReport:
    """Report for an incompressible/compressible fluid state.

    `rates` must provide dv and dE from the system RHS at this state; the
    B rate is mu curl(dv/dt).
    """
    em = extract_em(state, params)
    return full_report(em, state.v, rates.dE, curl(rates.dv) * params.mu,
                       params, state.time)


def classical_report(state: MaxwellState, params: MediumParams,
                     rates) -> LawResidualReport:
    """Report for a classical reference state (velocity-free)."""
    em = em_from_maxwell(state, params)
    return full_report(em, VectorField.zeros(state.E.grid), rates.dE, rates.dB,
                       params, state.time)


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

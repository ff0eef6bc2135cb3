"""Electromagnetic variables of a mechanical state and residuals of the derived laws.

The mapping is: E is the negative shear-stress vector carried by the fluid
state, B = mu curl(v) (dynamic vorticity), H = curl(v), the metacharge is
rho = div(E), and the metacurrent is J = rho v.

Two groups of laws are checked:

* exact discrete corollaries of the incompressible system's right-hand side
  (Faraday-Lorentz, its Hertz form, the generalized Ampere law, metacharge
  continuity): their residuals vanish at rounding level on band-limited
  states because div(curl .) = 0 spectrally and the dealiased products are
  exactly represented;
* linear-limit laws (classical Faraday and the displacement-current law):
  their normalized residuals scale linearly with the state amplitude.

Stationary-regime diagnostics (Biot-Savart, Ohm-Ampere, Ampere in vacuo) are
reported together with applicability indicators instead of pass/fail bounds,
since they only hold in quasi-static limits.

All rate inputs (dE/dt, dB/dt, drho/dt) must come from an integrator RHS
evaluation, never from finite differencing of snapshots, so law-verification
error is not polluted by time-discretization error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
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
    "StationaryDiagnostic",
    "LAW_NAMES",
    "extract_em",
    "em_from_maxwell",
    "residual_faraday",
    "residual_displacement_current",
    "residual_faraday_lorentz",
    "residual_hertz_form",
    "residual_generalized_ampere",
    "residual_metacharge_continuity",
    "biot_savart_residual",
    "ohm_ampere_residual",
    "ampere_vacuo_residual",
    "full_report",
    "fi_report",
    "classical_report",
    "report_to_dict",
    "write_reports_ndjson",
    "write_reports_csv",
]

LAW_NAMES = (
    "faraday",
    "displacement_current",
    "faraday_lorentz",
    "hertz_form",
    "generalized_ampere",
    "metacharge_continuity",
    "biot_savart",
    "ohm_ampere",
    "ampere_vacuo",
)


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
# law term builders: each returns (residual, {term_name: field})
# ---------------------------------------------------------------------------

class _Terms:
    """The terms several laws share, each formed at most once: curl E,
    curl B and the dealiased v x E of one state."""

    def __init__(self, em: EmState, v: VectorField | None = None):
        self.em, self.v = em, v

    @functools.cached_property
    def curl_E(self) -> VectorField:
        return curl(self.em.E)

    @functools.cached_property
    def curl_B(self) -> VectorField:
        return curl(self.em.B)

    @functools.cached_property
    def v_cross_E(self) -> VectorField:
        return dealias_field(cross(self.v, self.em.E))


def _faraday(t: _Terms, dB_dt: VectorField):
    return t.curl_E + dB_dt, {"curl_E": t.curl_E, "dB_dt": dB_dt}


def _displacement_current(t: _Terms, dE_dt: VectorField, params: MediumParams):
    displacement = t.curl_B * (params.c ** 2)
    return dE_dt - displacement, {"dE_dt": dE_dt, "c2_curl_B": displacement}


def _faraday_lorentz(t: _Terms, dB_dt: VectorField):
    motional = curl(dealias_field(cross(t.v, t.em.B)))
    return t.curl_E - motional + dB_dt, {
        "curl_E": t.curl_E,
        "curl_vxB": motional,
        "dB_dt": dB_dt,
    }


def _hertz_form(t: _Terms, dB_dt: VectorField):
    conv = vector_advection(t.v, t.em.B)
    stretch = vector_advection(t.em.B, t.v)
    return dB_dt + conv - stretch + t.curl_E, {
        "dB_dt": dB_dt,
        "v_grad_B": conv,
        "B_grad_v": stretch,
        "curl_E": t.curl_E,
    }


def _generalized_ampere(t: _Terms, dE_dt: VectorField, params: MediumParams):
    motional = curl(t.v_cross_E)
    attenuation = t.em.E * params.kappa
    convective = t.em.J
    displacement = t.curl_B * (params.c ** 2)
    residual = dE_dt - motional + attenuation + convective - displacement
    return residual, {
        "dE_dt": dE_dt,
        "curl_vxE": motional,
        "kappa_E": attenuation,
        "v_div_E": convective,
        "c2_curl_B": displacement,
    }


def _metacharge_continuity(t: _Terms, drho_dt: ScalarField, params: MediumParams):
    transport = div(t.em.J)
    attenuation = t.em.rho * params.kappa
    return drho_dt + transport + attenuation, {
        "drho_dt": drho_dt,
        "div_rho_v": transport,
        "kappa_rho": attenuation,
    }


def _biot_savart(t: _Terms, params: MediumParams):
    motional = t.v_cross_E * (1.0 / params.c ** 2)
    return t.em.B + motional, {"B": t.em.B, "vxE_over_c2": motional}


def _ohm_ampere(t: _Terms, params: MediumParams):
    conduction = t.em.E * (params.kappa / params.c ** 2)
    return t.curl_B - conduction, {"curl_B": t.curl_B, "kappa_E_over_c2": conduction}


def _ampere_vacuo(t: _Terms, params: MediumParams):
    displacement = t.curl_B * (params.c ** 2)
    return displacement - t.em.J, {"c2_curl_B": displacement, "J": t.em.J}


# ---------------------------------------------------------------------------
# public residual operations
# ---------------------------------------------------------------------------

def residual_faraday(em: EmState, dB_dt: VectorField) -> VectorField:
    """curl E + dB/dt."""
    return _faraday(_Terms(em), dB_dt)[0]


def residual_displacement_current(em: EmState, dE_dt: VectorField,
                                  params: MediumParams) -> VectorField:
    """dE/dt - c^2 curl B."""
    return _displacement_current(_Terms(em), dE_dt, params)[0]


def residual_faraday_lorentz(em: EmState, v: VectorField,
                             dB_dt: VectorField) -> VectorField:
    """curl[E - v x B] + dB/dt; dB/dt must be mu curl(dv/dt) from the RHS."""
    return _faraday_lorentz(_Terms(em, v), dB_dt)[0]


def residual_hertz_form(em: EmState, v: VectorField,
                        dB_dt: VectorField) -> VectorField:
    """dB/dt + v.grad B - B.grad v + curl E (solenoidal v and B)."""
    return _hertz_form(_Terms(em, v), dB_dt)[0]


def residual_generalized_ampere(em: EmState, v: VectorField, dE_dt: VectorField,
                                params: MediumParams) -> VectorField:
    """dE/dt - curl(v x E) + kappa E + v (div E) - c^2 curl B, where v (div E)
    is the metacurrent em.J of the state whose velocity is v."""
    return _generalized_ampere(_Terms(em, v), dE_dt, params)[0]


def residual_metacharge_continuity(em: EmState, v: VectorField,
                                   drho_dt: ScalarField,
                                   params: MediumParams) -> ScalarField:
    """drho/dt + div(rho v) + kappa rho, with drho/dt = div(dE/dt)."""
    return _metacharge_continuity(_Terms(em, v), drho_dt, params)[0]


@dataclass(frozen=True)
class StationaryDiagnostic:
    """Residual of a stationary-regime law plus its applicability indicators.

    The indicators quantify how far the state is from the regime in which the
    law is derived (L2 norms); `e_t` is None when no dE/dt was supplied.
    """

    residual: VectorField
    indicators: dict


def biot_savart_residual(em: EmState, v: VectorField, params: MediumParams,
                         dE_dt: VectorField | None = None) -> StationaryDiagnostic:
    """B + (v x E)/c^2, valid for quasi-stationary, kappa=0, charge-free states."""
    residual, _ = _biot_savart(_Terms(em, v), params)
    return StationaryDiagnostic(residual, _stationary_indicators(em, v, params, dE_dt))


def ohm_ampere_residual(em: EmState, params: MediumParams,
                        dE_dt: VectorField | None = None) -> StationaryDiagnostic:
    """curl B - (kappa/c^2) E, valid for stationary velocity-free regimes."""
    residual, _ = _ohm_ampere(_Terms(em), params)
    v0 = VectorField.zeros(em.E.grid)
    return StationaryDiagnostic(residual, _stationary_indicators(em, v0, params, dE_dt))


def ampere_vacuo_residual(em: EmState, v: VectorField, params: MediumParams,
                          dE_dt: VectorField | None = None) -> StationaryDiagnostic:
    """c^2 curl B - J, same applicability indicators as the Biot-Savart residual."""
    residual, _ = _ampere_vacuo(_Terms(em, v), params)
    return StationaryDiagnostic(residual, _stationary_indicators(em, v, params, dE_dt))


def _stationary_indicators(em: EmState, v: VectorField, params: MediumParams,
                           dE_dt: VectorField | None) -> dict:
    return {
        "e_t": norm_l2(dE_dt) if dE_dt is not None else None,
        "kappa_e": params.kappa * norm_l2(em.E),
        "v_div_e": norm_l2(dealias_field(v * em.rho)),
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
    """Residual norms of every registered law from one RHS evaluation.

    drho/dt is derived as div(dE/dt), and the terms several laws share
    (curl E, curl B, the dealiased v x E and em.J) are formed once.  Each
    entry records the raw L2 and L-inf residual norms together with the L2
    norm of the law's largest term; a 0/0 normalized residual is reported as 0.
    """
    drho_dt = div(dE_dt)
    t = _Terms(em, v)
    entries = [
        _entry("faraday", *_faraday(t, dB_dt)),
        _entry("displacement_current", *_displacement_current(t, dE_dt, params)),
        _entry("faraday_lorentz", *_faraday_lorentz(t, dB_dt)),
        _entry("hertz_form", *_hertz_form(t, dB_dt)),
        _entry("generalized_ampere", *_generalized_ampere(t, dE_dt, params)),
        _entry("metacharge_continuity", *_metacharge_continuity(t, drho_dt, params)),
        _entry("biot_savart", *_biot_savart(t, params)),
        _entry("ohm_ampere", *_ohm_ampere(t, params)),
        _entry("ampere_vacuo", *_ampere_vacuo(t, params)),
    ]
    return LawResidualReport(time=time, entries=tuple(entries))


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
    """CSV export with columns (time, law, l2, linf, norm)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "law", "l2", "linf", "norm"])
        for r in reports:
            for e in r.entries:
                writer.writerow([repr(r.time), e.name, repr(e.l2), repr(e.linf),
                                 repr(e.normalization)])
    os.replace(tmp, path)

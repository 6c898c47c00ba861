"""Data generators for every figure in the paper's evaluation.

Each function returns plain dict/array data — the benchmark harness
prints them, and tests assert their shapes against the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.case_study import CaseStudy
from repro.analysis.sensitivity import case_study_parameters
from repro.core.carbon_intensity import GRIDS
from repro.core.embodied import EmbodiedCarbonModel
from repro.core.isoline import TcdpOperatingPoint, TcdpTradeoffMap
from repro.core.materials import MaterialsModel
from repro.core.tcdp import edp_ratio
from repro.core.uncertainty import IsolineUncertaintyAnalysis
from repro.fab import build_all_si_process, build_m3d_process
from repro.fab.energy_data import EUV_METAL_VIA_PAIR_RECIPE, STEP_ENERGY_KWH
from repro.fab.steps import ProcessArea
from repro.physical.power import CorePowerModel
from repro.physical.stdcells import VtFlavor


# ---------------------------------------------------------------------------
# Table I: FET figures of merit, quantified
# ---------------------------------------------------------------------------
def table1_fet_figures() -> Dict[str, Dict[str, float]]:
    """Quantified Table I: I_EFF, I_OFF, SS, and BEOL compatibility."""
    from repro.devices import cnfet_nfet, igzo_nfet, si_nfet

    rows: Dict[str, Dict[str, float]] = {}
    for name, fet in (
        ("cnfet", cnfet_nfet("c", 1.0)),
        ("igzo", igzo_nfet("i", 1.0)),
        ("si", si_nfet("s", 1.0)),
    ):
        rows[name] = {
            "ieff_ua_per_um": fet.effective_current_a() * 1e6,
            "ioff_a_per_um": fet.off_current_a(),
            "ss_mv_per_dec": fet.subthreshold_slope_mv_per_dec(),
            "beol_compatible": name != "si",
        }
    return rows


# ---------------------------------------------------------------------------
# Fig. 2c: embodied carbon per wafer by grid
# ---------------------------------------------------------------------------
def fig2c_embodied_per_wafer(
    grids: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-wafer C_embodied (kg) for both processes across grids.

    Returns {grid: {"all_si": kg, "m3d": kg, "ratio": x}} plus an
    ``"average"`` entry with the mean ratio (the paper's 1.31x).
    """
    grid_map = grids if grids is not None else GRIDS
    si_model = EmbodiedCarbonModel(
        build_all_si_process(), materials=MaterialsModel.for_all_si()
    )
    m3d_model = EmbodiedCarbonModel(
        build_m3d_process(), materials=MaterialsModel.for_m3d()
    )
    out: Dict[str, Dict[str, float]] = {}
    ratios: List[float] = []
    for grid, ci_value in grid_map.items():
        si = si_model.evaluate(ci_value).per_wafer_kg
        m3d = m3d_model.evaluate(ci_value).per_wafer_kg
        out[grid] = {"all_si": si, "m3d": m3d, "ratio": m3d / si}
        ratios.append(m3d / si)
    out["average"] = {"ratio": float(np.mean(ratios))}
    return out


# ---------------------------------------------------------------------------
# Fig. 2d: EUV metal-layer fabrication step energies
# ---------------------------------------------------------------------------
def fig2d_euv_metal_steps() -> Dict[str, Dict[str, float]]:
    """Steps and total energy per process area for an EUV metal/via pair.

    Mirrors the paper's Fig. 2d bar chart (the worked example: deposition
    = 3 steps, 4 kWh -> 1.33 kWh/step).
    """
    recipe = EUV_METAL_VIA_PAIR_RECIPE
    out: Dict[str, Dict[str, float]] = {}
    for area in ProcessArea.ordered():
        steps = recipe.steps.get(area, 0)
        if not steps:
            continue
        total = recipe.area_energy_kwh(area)
        out[area.value] = {
            "steps": float(steps),
            "total_kwh": total,
            "kwh_per_step": STEP_ENERGY_KWH[area],
        }
    return out


# ---------------------------------------------------------------------------
# Fig. 4: M0 energy per cycle vs clock frequency per V_T flavour
# ---------------------------------------------------------------------------
def fig4_energy_vs_clock(
    clocks_hz: Optional[Sequence[float]] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Energy/cycle series for HVT/RVT/LVT/SLVT over the paper's sweep
    (100 MHz to 1 GHz in 100 MHz steps)."""
    clocks = (
        list(clocks_hz)
        if clocks_hz is not None
        else [100e6 * k for k in range(1, 11)]
    )
    model = CorePowerModel()
    sweep = model.sweep(clocks)
    out: Dict[str, List[Dict[str, float]]] = {}
    for flavor in VtFlavor:
        out[flavor.value] = [
            {
                "clock_mhz": r.clock_hz / 1e6,
                "energy_per_cycle_pj": r.energy_per_cycle_j * 1e12,
                "met_timing": float(r.met_timing),
                "sizing": r.sizing_factor,
            }
            for r in sweep[flavor]
        ]
    return out


def fig4_critical_path(
    clocks_hz: Optional[Sequence[float]] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Critical-path delay per (clock, V_T) point (Sec. III-B step 3:
    "Figure 4 shows the critical path delay for each design")."""
    from repro.physical.timing import TimingClosure

    clocks = (
        list(clocks_hz)
        if clocks_hz is not None
        else [100e6 * k for k in range(1, 11)]
    )
    closure = TimingClosure()
    sweep = closure.sweep(clocks)
    out: Dict[str, List[Dict[str, float]]] = {}
    for flavor in VtFlavor:
        out[flavor.value] = [
            {
                "clock_mhz": r.clock_hz / 1e6,
                "critical_path_ns": r.critical_path_s * 1e9,
                "slack_ns": r.slack_s * 1e9,
                "met_timing": float(r.met),
            }
            for r in sweep[flavor]
        ]
    return out


# ---------------------------------------------------------------------------
# Fig. 5: tC and tCDP vs lifetime
# ---------------------------------------------------------------------------
def fig5_tc_and_tcdp(
    case: CaseStudy, months: Optional[Sequence[float]] = None
) -> Dict[str, object]:
    """tC components and tCDP per month of lifetime (US grid).

    Returns per-system series plus the ratio annotations the paper
    highlights (at 1, 18, 24 months) and the EDP-limit asymptote.
    """
    month_axis = (
        list(months) if months is not None else [float(m) for m in range(1, 25)]
    )
    series: Dict[str, object] = {"months": month_axis}
    for key, system in (("all_si", case.all_si), ("m3d", case.m3d)):
        breakdowns = system.total_carbon.series(month_axis)
        series[key] = {
            "embodied_g": [b.embodied_g for b in breakdowns],
            "operational_g": [b.operational_g for b in breakdowns],
            "total_g": [b.total_g for b in breakdowns],
            "tcdp": [b.total_g * system.execution_time_s for b in breakdowns],
        }
    series["ratio_m3d_over_si"] = [
        case.tcdp_ratio(m) for m in month_axis
    ]
    series["highlighted_ratios"] = {
        m: case.tcdp_ratio(m) for m in (1.0, 18.0, 24.0)
    }
    series["edp_limit"] = edp_ratio(
        case.m3d.operational_power_w,
        case.all_si.operational_power_w,
        case.m3d.execution_time_s,
        case.all_si.execution_time_s,
    )
    series["crossover_months"] = case.tc_crossover_months()
    series["dominance_months"] = {
        "all_si": case.all_si.total_carbon.operational_dominance_months(),
        "m3d": case.m3d.total_carbon.operational_dominance_months(),
    }
    return series


# ---------------------------------------------------------------------------
# Fig. 6a: tCDP trade-off map and isoline
# ---------------------------------------------------------------------------
def _operating_points(case: CaseStudy, lifetime_months: float):
    m3d_b = case.m3d.total_carbon.breakdown(lifetime_months)
    si_b = case.all_si.total_carbon.breakdown(lifetime_months)
    candidate = TcdpOperatingPoint(
        m3d_b.embodied_g,
        m3d_b.operational_g,
        execution_time_s=case.m3d.execution_time_s,
    )
    baseline = TcdpOperatingPoint(
        si_b.embodied_g,
        si_b.operational_g,
        execution_time_s=case.all_si.execution_time_s,
    )
    return candidate, baseline


def fig6a_tradeoff_map(
    case: CaseStudy,
    lifetime_months: float = 24.0,
    emb_scales: Optional[np.ndarray] = None,
    op_scales: Optional[np.ndarray] = None,
) -> Dict[str, object]:
    """Relative-tCDP colormap + isoline over (C_emb scale, E_op scale)."""
    xs = emb_scales if emb_scales is not None else np.linspace(0.05, 2.0, 40)
    ys = op_scales if op_scales is not None else np.linspace(0.05, 2.0, 40)
    candidate, baseline = _operating_points(case, lifetime_months)
    tmap = TcdpTradeoffMap(candidate, baseline)
    return {
        "emb_scales": xs,
        "op_scales": ys,
        "ratio_map": tmap.ratio_grid(xs, ys),
        "isoline_emb_scale": tmap.isoline_emb_scale(ys),
        "nominal_ratio": tmap.ratio(1.0, 1.0),
    }


# ---------------------------------------------------------------------------
# Fig. 6b: isoline under uncertainty
# ---------------------------------------------------------------------------
def fig6b_isoline_uncertainty(
    case: CaseStudy,
    lifetime_months: float = 24.0,
    op_scales: Optional[np.ndarray] = None,
) -> Dict[str, object]:
    """The Fig. 6b isoline family: nominal plus the six perturbations
    (+/- 6 months, CI_use x3 / /3, M3D yield 10 % / 90 %)."""
    ys = op_scales if op_scales is not None else np.linspace(0.05, 2.0, 40)
    params = case_study_parameters(case, lifetime_months)
    analysis = IsolineUncertaintyAnalysis(params)
    xs = np.linspace(0.05, 3.0, 30)
    return {
        "op_scales": ys,
        "isolines": analysis.isolines(ys),
        "robust_regions": analysis.robust_regions(xs, ys),
        "emb_scales": xs,
        "parameters": params,
    }

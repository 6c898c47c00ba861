"""One-at-a-time sensitivity (tornado) analysis of the tCDP verdict.

Fig. 6b shows how specific perturbations move the isoline; this module
generalizes it: perturb each model parameter by +/- a relative amount
and record the swing of the M3D-vs-all-Si tCDP ratio — identifying which
assumptions the paper's 1.02x conclusion is most sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.core.uncertainty import ScenarioParameters
from repro.errors import CarbonModelError


@dataclass(frozen=True)
class SensitivityEntry:
    """The tCDP ratio swing from perturbing one parameter."""

    parameter: str
    ratio_low: float  # tCDP ratio with the parameter scaled down
    ratio_high: float  # ... scaled up
    ratio_nominal: float

    @property
    def swing(self) -> float:
        return abs(self.ratio_high - self.ratio_low)

    @property
    def flips_verdict(self) -> bool:
        """True when the perturbation range crosses the ratio-1 line."""
        lo = min(self.ratio_low, self.ratio_high)
        hi = max(self.ratio_low, self.ratio_high)
        return lo < 1.0 < hi


#: Parameter -> transformation applying a multiplicative factor.
_PERTURBERS: Dict[str, Callable[[ScenarioParameters, float], ScenarioParameters]] = {
    "m3d_embodied_wafer": lambda p, f: replace(
        p, candidate_wafer_g=p.candidate_wafer_g * f
    ),
    "m3d_yield": lambda p, f: replace(
        p, candidate_yield=min(1.0, max(1e-3, p.candidate_yield * f))
    ),
    "si_yield": lambda p, f: replace(
        p, baseline_yield=min(1.0, max(1e-3, p.baseline_yield * f))
    ),
    "m3d_operational_power": lambda p, f: replace(
        p, candidate_op_per_month_g=p.candidate_op_per_month_g * f
    ),
    "si_operational_power": lambda p, f: replace(
        p, baseline_op_per_month_g=p.baseline_op_per_month_g * f
    ),
    "lifetime": lambda p, f: replace(
        p, lifetime_months=p.lifetime_months * f
    ),
    "ci_use": lambda p, f: replace(p, ci_use_scale=p.ci_use_scale * f),
    "m3d_dies_per_wafer": lambda p, f: replace(
        p, candidate_dies_per_wafer=p.candidate_dies_per_wafer * f
    ),
}


def _ratio(params: ScenarioParameters) -> float:
    # tradeoff_map() is memoized on the parameter set, so a clamped
    # perturbation that lands back on an already-seen scenario (or the
    # nominal one) reuses the existing map instead of rebuilding it.
    return params.tradeoff_map().ratio(1.0, 1.0)


def tornado_analysis(
    nominal: ScenarioParameters,
    relative_change: float = 0.25,
) -> List[SensitivityEntry]:
    """Perturb each parameter by +/- ``relative_change``; sort by swing.

    The nominal trade-off map is computed exactly once and shared by
    every entry; only genuinely perturbed scenarios build new maps.
    Returns entries sorted most-sensitive first (the tornado ordering).
    """
    if not (0.0 < relative_change < 1.0):
        raise CarbonModelError(
            f"relative change must be in (0, 1), got {relative_change}"
        )
    nominal_ratio = _ratio(nominal)
    entries: List[SensitivityEntry] = []
    for name, perturb in _PERTURBERS.items():
        low = _ratio(perturb(nominal, 1.0 - relative_change))
        high = _ratio(perturb(nominal, 1.0 + relative_change))
        entries.append(
            SensitivityEntry(
                parameter=name,
                ratio_low=low,
                ratio_high=high,
                ratio_nominal=nominal_ratio,
            )
        )
    return sorted(entries, key=lambda e: e.swing, reverse=True)


def render_tornado(entries: List[SensitivityEntry]) -> str:
    """Text tornado chart."""
    lines = [
        "SENSITIVITY - tCDP(M3D)/tCDP(all-Si) TORNADO (+/- 25% per parameter)",
        "-" * 76,
        f"{'parameter':24s} {'low':>8s} {'nominal':>8s} {'high':>8s} "
        f"{'swing':>8s}  {'flips?':>6s}",
    ]
    for e in entries:
        lines.append(
            f"{e.parameter:24s} {e.ratio_low:>8.4f} {e.ratio_nominal:>8.4f} "
            f"{e.ratio_high:>8.4f} {e.swing:>8.4f}  "
            f"{'YES' if e.flips_verdict else 'no':>6s}"
        )
    return "\n".join(lines)


def case_study_parameters(case, lifetime_months: float = 24.0) -> ScenarioParameters:
    """Extract :class:`ScenarioParameters` from a built case study.

    The one extraction of the nominal scenario: Fig. 6b, the tornado,
    the Monte Carlo map and each served grid's nominal all start here.
    """
    per_month_m3d = case.m3d.total_carbon.operational.carbon_per_month_g(
        case.m3d.total_carbon.scenario.with_lifetime(1.0)
    )
    per_month_si = case.all_si.total_carbon.operational.carbon_per_month_g(
        case.all_si.total_carbon.scenario.with_lifetime(1.0)
    )
    return ScenarioParameters(
        candidate_wafer_g=case.m3d.embodied.per_wafer_g,
        candidate_dies_per_wafer=case.m3d.dies_per_wafer,
        candidate_yield=case.m3d.yield_fraction,
        candidate_op_per_month_g=per_month_m3d,
        baseline_wafer_g=case.all_si.embodied.per_wafer_g,
        baseline_dies_per_wafer=case.all_si.dies_per_wafer,
        baseline_yield=case.all_si.yield_fraction,
        baseline_op_per_month_g=per_month_si,
        lifetime_months=lifetime_months,
        execution_time_ratio=(
            case.m3d.execution_time_s / case.all_si.execution_time_s
        ),
    )

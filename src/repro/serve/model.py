"""The serving-side model stack: queries, contexts, and evaluators.

A *point query* is the paper's headline deliverable as an API: given a
(grid, lifetime, CI_use scale, M3D yield, map position) design point,
report C_embodied / C_operational / tCDP for both implementations,
where the point sits relative to the Fig. 6a isoline, the Fig. 6b
robustness verdict under the six paper perturbations, and the Fig. 5
tCDP-ratio-vs-lifetime trajectory with its crossover month.

Both evaluators run one scenario model: a query's scenario is its
grid's case-study nominal (:func:`~repro.analysis.sensitivity.case_study_parameters`)
with the query's lifetime, CI_use scale and M3D yield, and the
perturbations are :func:`~repro.core.uncertainty.paper_perturbations`.
They differ only in how they dispatch it, and produce byte-identical
responses:

- :func:`evaluate_point_scalar` — the *serial-dispatch control*: one
  request walked through the scalar model stack
  (:class:`~repro.core.uncertainty.ScenarioParameters`,
  :class:`~repro.core.isoline.TcdpTradeoffMap`), one trade-off map per
  scenario and month, exactly as a naive one-request-at-a-time server
  would;
- :func:`evaluate_points_batched` — the coalesced tensor path: the
  batch's scenarios stacked into one array-valued
  :class:`~repro.core.uncertainty.ScenarioParameters`, perturbed once,
  and evaluated on :meth:`~repro.core.uncertainty.ScenarioParameters.components`
  and :func:`~repro.core.isoline.batched_ratio_points`, amortizing the
  per-call dispatch cost the scalar stack pays per request.

The float operations agree element for element (the same contract the
batched Monte Carlo engine honors against its legacy loop), so the
request batcher can coalesce freely: clients cannot tell, bit for bit,
how large a batch their query rode in.  ``tests/serve/test_model.py``
pins this differentially, ``tests/serve/test_golden_digests.py`` pins
the answers themselves, and ``repro bench-serve`` re-checks the
equality on every benchmark run.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.isoline import batched_ratio_points
from repro.core.uncertainty import (
    ScenarioParameters,
    monte_carlo_win_probability,
    paper_perturbations,
)

__all__ = [
    "QueryError",
    "PointQuery",
    "GridQuery",
    "ModelContext",
    "evaluate_point_scalar",
    "evaluate_points_batched",
    "evaluate_grid",
    "LIFETIME_AXIS_MONTHS",
    "SUPPORTED_GRIDS",
]

#: Carbon-intensity grids the server accepts (the repo's named grids).
SUPPORTED_GRIDS = ("us", "coal", "solar", "taiwan")

#: Fixed month axis for the Fig. 5 trajectory in point responses.  A
#: shared axis keeps the batched evaluation rectangular; 1..24 months
#: matches the paper's lifetime horizon.
LIFETIME_AXIS_MONTHS = tuple(float(m) for m in range(1, 25))

#: Clock range accepted by queries (MHz).  Fig. 4 sweeps 100-1000 MHz.
_CLOCK_MHZ_RANGE = (50.0, 2000.0)

#: Cap on explicit grid-tile axes, bounding per-request tensor size.
MAX_GRID_AXIS_POINTS = 256

#: Cap on Monte Carlo samples per grid request.
MAX_MC_SAMPLES = 100_000


class QueryError(ValueError):
    """A request payload that fails validation (served as HTTP 400)."""


def _require_number(
    payload: Dict[str, Any], key: str, default: float
) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"{key!r} must be a number")
    return float(value)


@dataclass(frozen=True)
class PointQuery:
    """One validated ``POST /v1/tcdp`` design-point query."""

    grid: str = "us"
    clock_mhz: float = 500.0
    lifetime_months: float = 24.0
    ci_use_scale: float = 1.0
    candidate_yield: Optional[float] = None
    emb_scale: float = 1.0
    op_scale: float = 1.0

    _FIELDS = (
        "grid",
        "clock_mhz",
        "lifetime_months",
        "ci_use_scale",
        "candidate_yield",
        "emb_scale",
        "op_scale",
    )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PointQuery":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise QueryError(
                f"unknown field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(cls._FIELDS)})"
            )
        grid = payload.get("grid", "us")
        if grid not in SUPPORTED_GRIDS:
            raise QueryError(
                f"unknown grid {grid!r} (one of: {', '.join(SUPPORTED_GRIDS)})"
            )
        clock_mhz = _require_number(payload, "clock_mhz", 500.0)
        if not (_CLOCK_MHZ_RANGE[0] <= clock_mhz <= _CLOCK_MHZ_RANGE[1]):
            raise QueryError(
                f"clock_mhz must be within {_CLOCK_MHZ_RANGE}, "
                f"got {clock_mhz}"
            )
        lifetime = _require_number(payload, "lifetime_months", 24.0)
        if not (0.0 < lifetime <= 1200.0):
            raise QueryError(
                f"lifetime_months must be in (0, 1200], got {lifetime}"
            )
        ci = _require_number(payload, "ci_use_scale", 1.0)
        if not (0.0 < ci <= 1000.0):
            raise QueryError(f"ci_use_scale must be in (0, 1000], got {ci}")
        cand_yield: Optional[float] = None
        if payload.get("candidate_yield") is not None:
            cand_yield = _require_number(payload, "candidate_yield", 0.5)
            if not (0.0 < cand_yield <= 1.0):
                raise QueryError(
                    f"candidate_yield must be in (0, 1], got {cand_yield}"
                )
        emb_scale = _require_number(payload, "emb_scale", 1.0)
        op_scale = _require_number(payload, "op_scale", 1.0)
        if emb_scale < 0 or op_scale < 0:
            raise QueryError("emb_scale and op_scale must be >= 0")
        return cls(
            grid=grid,
            clock_mhz=clock_mhz,
            lifetime_months=lifetime,
            ci_use_scale=ci,
            candidate_yield=cand_yield,
            emb_scale=emb_scale,
            op_scale=op_scale,
        )


@dataclass(frozen=True)
class GridQuery:
    """One validated ``POST /v1/grid`` trade-off-map-tile query."""

    grid: str = "us"
    clock_mhz: float = 500.0
    lifetime_months: float = 24.0
    ci_use_scale: float = 1.0
    candidate_yield: Optional[float] = None
    emb_scales: Tuple[float, ...] = ()
    op_scales: Tuple[float, ...] = ()
    include_ratio_map: bool = True
    mc_samples: int = 0
    mc_seed: int = 0

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GridQuery":
        known = {
            "grid",
            "clock_mhz",
            "lifetime_months",
            "ci_use_scale",
            "candidate_yield",
            "emb_scales",
            "op_scales",
            "include_ratio_map",
            "mc_samples",
            "mc_seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(
                f"unknown field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})"
            )
        point = PointQuery.from_payload(
            {
                k: payload[k]
                for k in (
                    "grid",
                    "clock_mhz",
                    "lifetime_months",
                    "ci_use_scale",
                    "candidate_yield",
                )
                if k in payload
            }
        )
        include_map = payload.get("include_ratio_map", True)
        if not isinstance(include_map, bool):
            raise QueryError("include_ratio_map must be a boolean")
        mc_samples = payload.get("mc_samples", 0)
        if (
            isinstance(mc_samples, bool)
            or not isinstance(mc_samples, int)
            or not (0 <= mc_samples <= MAX_MC_SAMPLES)
        ):
            raise QueryError(
                f"mc_samples must be an integer in [0, {MAX_MC_SAMPLES}]"
            )
        mc_seed = payload.get("mc_seed", 0)
        if isinstance(mc_seed, bool) or not isinstance(mc_seed, int):
            raise QueryError("mc_seed must be an integer")
        return cls(
            grid=point.grid,
            clock_mhz=point.clock_mhz,
            lifetime_months=point.lifetime_months,
            ci_use_scale=point.ci_use_scale,
            candidate_yield=point.candidate_yield,
            emb_scales=cls._axis(payload, "emb_scales"),
            op_scales=cls._axis(payload, "op_scales"),
            include_ratio_map=include_map,
            mc_samples=mc_samples,
            mc_seed=mc_seed,
        )

    @staticmethod
    def _axis(payload: Dict[str, Any], key: str) -> Tuple[float, ...]:
        """Parse a scale axis: an explicit list or a linspace spec."""
        spec = payload.get(key)
        if spec is None:
            return tuple(np.linspace(0.05, 2.0, 40).tolist())
        if isinstance(spec, dict):
            extra = sorted(set(spec) - {"start", "stop", "n"})
            if extra:
                raise QueryError(
                    f"{key}: unknown axis field(s): {', '.join(extra)}"
                )
            start = _require_number(spec, "start", 0.05)
            stop = _require_number(spec, "stop", 2.0)
            n = spec.get("n", 40)
            if (
                isinstance(n, bool)
                or not isinstance(n, int)
                or not (2 <= n <= MAX_GRID_AXIS_POINTS)
            ):
                raise QueryError(
                    f"{key}.n must be an integer in "
                    f"[2, {MAX_GRID_AXIS_POINTS}]"
                )
            if not (0.0 <= start < stop):
                raise QueryError(f"{key}: need 0 <= start < stop")
            return tuple(np.linspace(start, stop, n).tolist())
        if isinstance(spec, list):
            if not (1 <= len(spec) <= MAX_GRID_AXIS_POINTS):
                raise QueryError(
                    f"{key} must have 1..{MAX_GRID_AXIS_POINTS} entries"
                )
            values = []
            for v in spec:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise QueryError(f"{key} entries must be numbers")
                if v < 0:
                    raise QueryError(f"{key} entries must be >= 0")
                values.append(float(v))
            return tuple(values)
        raise QueryError(
            f"{key} must be a list of scales or "
            f"{{'start':..,'stop':..,'n':..}}"
        )


@functools.lru_cache(maxsize=64)
def _build_nominal(grid: str, clock_mhz: float) -> ScenarioParameters:
    """One grid's nominal scenario from the case study (memoized)."""
    from repro.analysis.case_study import build_case_study
    from repro.analysis.sensitivity import case_study_parameters
    from repro.core.operational import UsageScenario

    return case_study_parameters(
        build_case_study(
            clock_hz=clock_mhz * 1e6,
            scenario=UsageScenario(lifetime_months=24.0),
            grid=grid,
        )
    )


class ModelContext:
    """Everything the handlers share: warm nominals and the sweep cache.

    One instance lives for the whole server process.  Building a nominal
    scenario is a full case-study construction, so :meth:`warm` runs at
    startup — the first request never pays it — and further (grid,
    clock) pairs are memoized on first use.
    """

    def __init__(
        self,
        grids: Sequence[str] = SUPPORTED_GRIDS,
        clock_mhz: float = 500.0,
        sweep_cache: Optional[Any] = None,
    ) -> None:
        unknown = sorted(set(grids) - set(SUPPORTED_GRIDS))
        if unknown:
            raise QueryError(f"unknown grid(s): {', '.join(unknown)}")
        self.grids = tuple(grids)
        self.clock_mhz = float(clock_mhz)
        self.sweep_cache = sweep_cache
        self._lock = threading.Lock()

    def warm(self) -> int:
        """Pre-build every configured nominal; returns the count built."""
        for grid in self.grids:
            self.nominal(grid, self.clock_mhz)
        return len(self.grids)

    def nominal(self, grid: str, clock_mhz: float) -> ScenarioParameters:
        """The case-study scenario of one (grid, clock) pair."""
        # The lru_cache is not re-entrant under free threading; serialize
        # builds so concurrent cold paths cannot race.
        with self._lock:
            return _build_nominal(grid, clock_mhz)

    def scenario(self, query: "PointQuery | GridQuery") -> ScenarioParameters:
        """The scalar scenario a query asks about: its nominal with the
        query's lifetime, CI_use scale and (optional) M3D yield."""
        nominal = self.nominal(query.grid, query.clock_mhz)
        return replace(
            nominal,
            candidate_yield=(
                query.candidate_yield
                if query.candidate_yield is not None
                else nominal.candidate_yield
            ),
            lifetime_months=query.lifetime_months,
            ci_use_scale=query.ci_use_scale,
        )


# ---------------------------------------------------------------------------
# Point evaluation: scalar control vs batched tensor path
# ---------------------------------------------------------------------------
#: The six Fig. 6b perturbations, shared by both evaluators.
_PERTURBATIONS = paper_perturbations()


def _finite(value: float) -> Optional[float]:
    """A JSON-safe float: ``None`` where the model says NaN."""
    return None if np.isnan(value) else float(value)


def _point_response(
    query: PointQuery,
    scenario: ScenarioParameters,
    ratio: float,
    iso_emb: float,
    iso_op: float,
    pert_ratios: Sequence[float],
    month_sheet: Sequence[Sequence[float]],
) -> Dict[str, Any]:
    """Assemble the response dict (field order fixed for byte equality).

    ``month_sheet`` has one row per scenario — nominal first, then the
    six paper perturbations — of tCDP ratios along the lifetime axis;
    the envelope across rows is the Fig. 5 trajectory under Fig. 6b
    uncertainty, and its crossings give the robust crossover window.
    """
    cand_emb, cand_op, base_emb, base_op = scenario.components()
    cand_tcdp = (cand_emb + cand_op) * scenario.execution_time_ratio
    base_tcdp = (base_emb + base_op) * 1.0
    robustness = {
        pert.name: float(r)
        for pert, r in zip(_PERTURBATIONS, pert_ratios)
    }
    all_ratios = [ratio] + [float(r) for r in pert_ratios]
    sheet = [[float(r) for r in row] for row in month_sheet]
    month_ratios = sheet[0]
    envelope_lo = [min(col) for col in zip(*sheet)]
    envelope_hi = [max(col) for col in zip(*sheet)]

    def _crossover(row: Sequence[float]) -> Optional[int]:
        for month, month_ratio in zip(LIFETIME_AXIS_MONTHS, row):
            if month_ratio < 1.0:
                return int(month)
        return None

    crossover = _crossover(month_ratios)
    return {
        "schema": "ppatc-point/1",
        "query": {
            "grid": query.grid,
            "clock_mhz": query.clock_mhz,
            "lifetime_months": query.lifetime_months,
            "ci_use_scale": query.ci_use_scale,
            "candidate_yield": scenario.candidate_yield,
            "emb_scale": query.emb_scale,
            "op_scale": query.op_scale,
        },
        "candidate": {
            "embodied_g": float(cand_emb),
            "operational_g": float(cand_op),
            "tcdp_gs": float(cand_tcdp),
        },
        "baseline": {
            "embodied_g": float(base_emb),
            "operational_g": float(base_op),
            "tcdp_gs": float(base_tcdp),
        },
        "tcdp_ratio": float(ratio),
        "candidate_wins": bool(ratio < 1.0),
        "carbon_efficiency_advantage": float(1.0 / ratio),
        "isoline": {
            "emb_scale_at_query_op": _finite(iso_emb),
            "op_scale_at_query_emb": _finite(iso_op),
        },
        "robustness": {
            "ratios": robustness,
            "robust_win": bool(max(all_ratios) < 1.0),
            "robust_loss": bool(min(all_ratios) >= 1.0),
        },
        "lifetime": {
            "months": [float(m) for m in LIFETIME_AXIS_MONTHS],
            "tcdp_ratio_by_month": month_ratios,
            "envelope_lo": envelope_lo,
            "envelope_hi": envelope_hi,
            "crossover_months": crossover,
            "best_case_crossover_months": _crossover(envelope_lo),
            "worst_case_crossover_months": _crossover(envelope_hi),
        },
    }


def evaluate_point_scalar(
    context: ModelContext, query: PointQuery
) -> Dict[str, Any]:
    """Serial-dispatch control: one query through the scalar stack.

    Every quantity is produced by the pre-existing public model API —
    :class:`ScenarioParameters` objects, one :class:`TcdpTradeoffMap`
    per scenario and per lifetime month — exactly as a server without a
    batcher would compute it.
    """
    params = context.scenario(query)
    tmap = params.tradeoff_map()
    ratio = tmap.ratio(query.emb_scale, query.op_scale)
    iso_emb = tmap.isoline_emb_scale(query.op_scale)
    iso_op = tmap.isoline_op_scale(query.emb_scale)
    pert_ratios = [
        pert.apply(params)
        .tradeoff_map()
        .ratio(query.emb_scale, query.op_scale)
        for pert in _PERTURBATIONS
    ]
    # One Fig. 5 trajectory per scenario: set the lifetime to each axis
    # month, then apply the perturbation to that month-scenario (so
    # "lifetime +6 mo" asks what month m looks like if the lifetime
    # estimate is 6 months optimistic).
    month_params = [
        replace(params, lifetime_months=month)
        for month in LIFETIME_AXIS_MONTHS
    ]
    month_sheet = [
        [
            p.tradeoff_map().ratio(query.emb_scale, query.op_scale)
            for p in month_params
        ]
    ]
    for pert in _PERTURBATIONS:
        month_sheet.append(
            [
                pert.apply(p)
                .tradeoff_map()
                .ratio(query.emb_scale, query.op_scale)
                for p in month_params
            ]
        )
    return _point_response(
        query,
        params,
        ratio,
        iso_emb,
        iso_op,
        pert_ratios,
        month_sheet,
    )


def evaluate_points_batched(
    context: ModelContext, queries: Sequence[PointQuery]
) -> List[Dict[str, Any]]:
    """Coalesced tensor path: N queries in one batched evaluation.

    The queries' scenarios are stacked into one array-valued
    :class:`ScenarioParameters` over a ``(lifetimes, queries)`` grid,
    whose lifetime axis is the query's own lifetime followed by the
    Fig. 5 months.  The six paper perturbations apply to it once, and
    the stacked ``(7, lifetimes, queries)`` family runs through
    :meth:`ScenarioParameters.components` and
    :func:`batched_ratio_points` in one pass each.  Element-wise the
    float operations match the scalar stack, so responses are
    byte-identical to :func:`evaluate_point_scalar` regardless of batch
    size.
    """
    if not queries:
        return []
    scenarios = [context.scenario(q) for q in queries]
    batch = ScenarioParameters.stack(scenarios)
    # Lifetime row 0 is the query's lifetime, rows 1.. the Fig. 5
    # months; each perturbation then applies to every row at once, as
    # the scalar control applies it to each month-scenario.
    lifetimes = np.empty((1 + len(LIFETIME_AXIS_MONTHS), len(queries)))
    lifetimes[0] = batch.lifetime_months
    lifetimes[1:] = np.array(LIFETIME_AXIS_MONTHS)[:, None]
    nominal = replace(batch, lifetime_months=lifetimes)
    family = ScenarioParameters.stack(
        [nominal] + [pert.apply(nominal) for pert in _PERTURBATIONS]
    )
    cand_emb, cand_op, base_emb, base_op = family.components()
    base_tcdp = (base_emb + base_op) * 1.0
    xs = np.array([q.emb_scale for q in queries])
    ys = np.array([q.op_scale for q in queries])
    ratios = batched_ratio_points(
        cand_emb, cand_op, family.execution_time_ratio, base_tcdp, xs, ys
    )

    # Isoline position (nominal scenario at the query's lifetime only),
    # matching the scalar isoline_emb_scale / isoline_op_scale op order.
    target = base_tcdp[0, 0] / batch.execution_time_ratio
    with np.errstate(invalid="ignore"):
        iso_emb = (target - ys * cand_op[0, 0]) / cand_emb[0, 0]
    iso_emb = np.where(iso_emb >= 0, iso_emb, np.nan)
    iso_op = (target - xs * cand_emb[0, 0]) / cand_op[0, 0]
    iso_op = np.where(iso_op >= 0, iso_op, np.nan)

    return [
        _point_response(
            query,
            scenario,
            float(ratios[0, 0, i]),
            float(iso_emb[i]),
            float(iso_op[i]),
            ratios[1:, 0, i].tolist(),
            ratios[:, 1:, i].tolist(),
        )
        for i, (query, scenario) in enumerate(zip(queries, scenarios))
    ]


# ---------------------------------------------------------------------------
# Grid (trade-off-map tile) evaluation
# ---------------------------------------------------------------------------
def evaluate_grid(
    context: ModelContext, query: GridQuery
) -> Dict[str, Any]:
    """One Fig. 6a trade-off-map tile, optionally with a Fig. 6b
    Monte Carlo win-probability overlay.

    Tiles are already tensor evaluations (one ``batched_ratio_grid``
    call), so they dispatch inline rather than through the point
    batcher; the Monte Carlo overlay is memoized through the server's
    shared warm :class:`~repro.runtime.cache.SweepCache` when one is
    configured.
    """
    params = context.scenario(query)
    tmap = params.tradeoff_map()
    xs = np.array(query.emb_scales)
    ys = np.array(query.op_scales)
    response: Dict[str, Any] = {
        "schema": "ppatc-grid/1",
        "query": {
            "grid": query.grid,
            "clock_mhz": query.clock_mhz,
            "lifetime_months": query.lifetime_months,
            "ci_use_scale": query.ci_use_scale,
            "candidate_yield": params.candidate_yield,
            "emb_scales": xs.tolist(),
            "op_scales": ys.tolist(),
        },
        "nominal_ratio": float(tmap.ratio(1.0, 1.0)),
        "isoline_emb_scale": [
            _finite(v) for v in np.atleast_1d(tmap.isoline_emb_scale(ys))
        ],
    }
    if query.include_ratio_map:
        grid = tmap.ratio_grid(xs, ys)
        response["ratio_map"] = grid.tolist()
        response["candidate_win_fraction"] = float(
            np.count_nonzero(grid < 1.0) / grid.size
        )
    if query.mc_samples > 0:
        probability = monte_carlo_win_probability(
            params,
            xs,
            ys,
            n_samples=query.mc_samples,
            rng=np.random.default_rng(query.mc_seed),
            jobs=1,
            cache=context.sweep_cache,
        )
        response["win_probability"] = probability.tolist()
        response["mc_samples"] = query.mc_samples
        response["mc_seed"] = query.mc_seed
    return response

"""Robust tCDP comparison under carbon-accounting uncertainty (Fig. 6b).

Section III-D: the tCDP isoline moves when the underlying assumptions move
— system lifetime (+/- 6 months), CI_use (x3 / /3), and M3D yield
(10 % / 90 %).  This module holds the one scenario model every answer
about those assumptions runs through:

- :class:`ScenarioParameters` — both designs' carbon inputs.  Fields are
  floats or broadcastable arrays, and :meth:`ScenarioParameters.components`
  is the single carbon-component formula, so a scalar point, a batch of
  served queries, a perturbation family and a Monte Carlo chunk all
  evaluate the same float operations in the same order;
- :func:`paper_perturbations` — the six Fig. 6b transforms, written once
  and element-wise, so they apply to scalar and array scenarios alike;
- :class:`IsolineUncertaintyAnalysis` — the family of isolines, plus the
  *robust-win regions*: points where one design is better under every
  perturbation considered (one stacked ``(scenarios, y, x)`` grid);
- :func:`monte_carlo_win_probability` — samples parameter distributions
  and estimates, per (x, y) grid point, the probability that the candidate
  design has better tCDP.

The Monte Carlo is *batched*: all samples are drawn up front with the
NumPy generator (:func:`draw_monte_carlo_samples`), each chunk of them
becomes one array-valued scenario, and the win indicator is evaluated as
one ``(samples, op_scales, emb_scales)`` grid on the same kernel as
:meth:`TcdpTradeoffMap.ratio_grid`, optionally chunked over the
:mod:`repro.runtime.parallel` process pool and memoized through a
:class:`repro.runtime.cache.SweepCache`.  The per-sample reference loop
survives as :func:`monte_carlo_win_probability_legacy`; both consume the
same drawn samples, so for a fixed seed the two are bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.isoline import (
    TcdpOperatingPoint,
    TcdpTradeoffMap,
    batched_ratio_grid,
)
from repro.errors import CarbonModelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cache import SweepCache


@dataclass(frozen=True)
class ScenarioParameters:
    """Everything that determines both designs' carbon components.

    Carbon components are reconstructed from first principles so that a
    perturbation (say, yield) propagates correctly:

    - embodied per good die = wafer carbon / (dies per wafer * yield);
    - operational = ci_use_scale * per-month op carbon * lifetime.

    Any field may be a float or a NumPy array; array fields broadcast
    together, so one instance can carry a whole batch of scenarios
    (Monte Carlo samples, a perturbation family, a batch of served
    queries).  :meth:`tradeoff_map` needs a scalar scenario, since it
    memoizes on the (hashable) field values.
    """

    candidate_wafer_g: "float | np.ndarray"
    candidate_dies_per_wafer: "float | np.ndarray"
    candidate_yield: "float | np.ndarray"
    candidate_op_per_month_g: "float | np.ndarray"
    baseline_wafer_g: "float | np.ndarray"
    baseline_dies_per_wafer: "float | np.ndarray"
    baseline_yield: "float | np.ndarray"
    baseline_op_per_month_g: "float | np.ndarray"
    lifetime_months: "float | np.ndarray"
    ci_use_scale: "float | np.ndarray" = 1.0
    execution_time_ratio: "float | np.ndarray" = 1.0  # candidate / baseline time

    def __post_init__(self) -> None:
        # Element-wise checks: a float field yields a plain bool and costs
        # no NumPy call; an array field must hold at every element.
        ok = (0.0 < self.candidate_yield) & (self.candidate_yield <= 1.0)
        if not (ok if ok.__class__ is bool else ok.all()):
            raise CarbonModelError(f"bad candidate yield {self.candidate_yield}")
        ok = (0.0 < self.baseline_yield) & (self.baseline_yield <= 1.0)
        if not (ok if ok.__class__ is bool else ok.all()):
            raise CarbonModelError(f"bad baseline yield {self.baseline_yield}")
        bad = self.lifetime_months < 0
        if bad if bad.__class__ is bool else bad.any():
            raise CarbonModelError("lifetime must be >= 0")
        bad = self.ci_use_scale < 0
        if bad if bad.__class__ is bool else bad.any():
            raise CarbonModelError("CI_use scale must be >= 0")

    @classmethod
    def stack(
        cls, scenarios: Sequence["ScenarioParameters"]
    ) -> "ScenarioParameters":
        """One array-valued scenario whose row ``i`` is ``scenarios[i]``.

        A field that differs between the scenarios becomes an array of
        shape ``(len(scenarios), *shape)``, where ``shape`` broadcasts
        the first scenario's fields.  A field they all share (the same
        object, as :func:`dataclasses.replace` leaves untouched fields)
        is kept as it is, and broadcasts against the stacked ones.
        """
        first = scenarios[0]
        shape = np.broadcast(
            *[getattr(first, name) for name in _SCENARIO_FIELDS]
        ).shape
        stacked = {}
        for name in _SCENARIO_FIELDS:
            values = [getattr(s, name) for s in scenarios]
            if all(v is values[0] for v in values):
                stacked[name] = values[0]
            else:
                rows = np.empty((len(values),) + shape)
                for i, value in enumerate(values):
                    rows[i] = value
                stacked[name] = rows
        return cls(**stacked)

    def components(self) -> Tuple[Any, Any, Any, Any]:
        """``(candidate embodied, candidate operational, baseline
        embodied, baseline operational)`` carbon in g.

        The one carbon-component formula: scalar points, Monte Carlo
        chunks, perturbation families and served batches all evaluate
        it, element-wise in the same float-op order, so their results
        agree bit for bit.
        """
        return (
            self.candidate_wafer_g
            / (self.candidate_dies_per_wafer * self.candidate_yield),
            self.ci_use_scale
            * self.candidate_op_per_month_g
            * self.lifetime_months,
            self.baseline_wafer_g
            / (self.baseline_dies_per_wafer * self.baseline_yield),
            self.ci_use_scale
            * self.baseline_op_per_month_g
            * self.lifetime_months,
        )

    def points(self) -> Tuple[TcdpOperatingPoint, TcdpOperatingPoint]:
        """The (candidate, baseline) operating points of a scalar scenario."""
        cand_emb, cand_op, base_emb, base_op = self.components()
        return (
            TcdpOperatingPoint(
                cand_emb, cand_op, execution_time_s=self.execution_time_ratio
            ),
            TcdpOperatingPoint(base_emb, base_op, execution_time_s=1.0),
        )

    def tradeoff_map(self) -> TcdpTradeoffMap:
        """The trade-off map for these parameters, memoized.

        Equal parameter sets (the frozen dataclass is hashable) share one
        map instance, so analyses that revisit the nominal scenario per
        perturbation build it exactly once.
        """
        return _build_tradeoff_map(self)


_SCENARIO_FIELDS = tuple(f.name for f in fields(ScenarioParameters))


@functools.lru_cache(maxsize=1024)
def _build_tradeoff_map(params: ScenarioParameters) -> TcdpTradeoffMap:
    return TcdpTradeoffMap(*params.points())


@dataclass(frozen=True)
class ParameterPerturbation:
    """A named transformation of :class:`ScenarioParameters`."""

    name: str
    apply: Callable[[ScenarioParameters], ScenarioParameters]


def _at_least_zero(value: "float | np.ndarray") -> "float | np.ndarray":
    """``max(0, value)`` for a float or, element-wise, an array."""
    if isinstance(value, np.ndarray):
        return np.maximum(0.0, value)
    return max(0.0, value)


def paper_perturbations(
    lifetime_delta_months: float = 6.0,
    ci_scale: float = 3.0,
    m3d_yield_low: float = 0.10,
    m3d_yield_high: float = 0.90,
) -> List[ParameterPerturbation]:
    """The exact perturbation set of Fig. 6b.

    Six perturbations: lifetime +/- 6 months (red dashed lines), CI_use
    x3 and /3 (green), and candidate (M3D) yield at 10 % and 90 %
    (purple).  Each transform is element-wise, so it applies to an
    array-valued scenario as it does to a scalar one.
    """
    if ci_scale <= 0:
        raise CarbonModelError("CI scale must be > 0")
    return [
        ParameterPerturbation(
            f"lifetime +{lifetime_delta_months:g} mo",
            lambda p: replace(
                p, lifetime_months=p.lifetime_months + lifetime_delta_months
            ),
        ),
        ParameterPerturbation(
            f"lifetime -{lifetime_delta_months:g} mo",
            lambda p: replace(
                p,
                lifetime_months=_at_least_zero(
                    p.lifetime_months - lifetime_delta_months
                ),
            ),
        ),
        ParameterPerturbation(
            f"CI_use x{ci_scale:g}",
            lambda p: replace(p, ci_use_scale=p.ci_use_scale * ci_scale),
        ),
        ParameterPerturbation(
            f"CI_use /{ci_scale:g}",
            lambda p: replace(p, ci_use_scale=p.ci_use_scale / ci_scale),
        ),
        ParameterPerturbation(
            f"M3D yield {m3d_yield_low:.0%}",
            lambda p: replace(p, candidate_yield=m3d_yield_low),
        ),
        ParameterPerturbation(
            f"M3D yield {m3d_yield_high:.0%}",
            lambda p: replace(p, candidate_yield=m3d_yield_high),
        ),
    ]


class IsolineUncertaintyAnalysis:
    """Family of tCDP isolines under parameter perturbations (Fig. 6b)."""

    def __init__(
        self,
        nominal: ScenarioParameters,
        perturbations: Optional[Sequence[ParameterPerturbation]] = None,
    ) -> None:
        self.nominal = nominal
        self.perturbations = (
            list(perturbations)
            if perturbations is not None
            else paper_perturbations()
        )
        # The nominal map is perturbation-independent: build it once and
        # reuse it across repeat isolines() calls.
        self._nominal_map = nominal.tradeoff_map()

    def _perturbed_parameters(self) -> List[ScenarioParameters]:
        return [pert.apply(self.nominal) for pert in self.perturbations]

    def isolines(
        self, op_scales: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Embodied-scale isoline x(y) for nominal + each perturbation."""
        y = np.asarray(op_scales, dtype=float)
        result: Dict[str, np.ndarray] = {
            "nominal": self._nominal_map.isoline_emb_scale(y)
        }
        for pert, params in zip(
            self.perturbations, self._perturbed_parameters()
        ):
            result[pert.name] = params.tradeoff_map().isoline_emb_scale(y)
        return result

    def robust_regions(
        self,
        emb_scales: np.ndarray,
        op_scales: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Boolean masks over the (y, x) grid.

        ``candidate_always`` — candidate wins under the nominal scenario
        *and* every perturbation; ``baseline_always`` — candidate loses
        everywhere; the rest is the uncertain band.  These are the
        "regions in which the M3D design maintains better tCDP vs. the
        all-Si design (and vice versa)" of Sec. III-D.  The nominal and
        its perturbations are one stacked scenario, evaluated as one
        ``(scenarios, y, x)`` ratio grid.
        """
        members = [self.nominal] + self._perturbed_parameters()
        family = ScenarioParameters.stack(members)
        # A component no perturbation touches stays scalar; the grid
        # kernel wants one entry per scenario.
        cand_emb, cand_op, base_emb, base_op = (
            np.broadcast_to(c, (len(members),)) for c in family.components()
        )
        time_ratio = np.broadcast_to(
            family.execution_time_ratio, (len(members),)
        )
        # The checks TcdpOperatingPoint and TcdpTradeoffMap make on one
        # scenario, made here for every member.
        if np.any(cand_emb < 0) or np.any(cand_op < 0):
            raise CarbonModelError("carbon components must be >= 0")
        if np.any(time_ratio <= 0):
            raise CarbonModelError("execution time must be > 0")
        if np.any(base_emb < 0) or np.any(base_op < 0):
            raise CarbonModelError("carbon components must be >= 0")
        base_tcdp = (base_emb + base_op) * 1.0  # baseline execution time is 1 s
        if np.any(base_tcdp == 0):
            raise CarbonModelError("baseline tCDP must be non-zero")
        ratios = batched_ratio_grid(
            cand_emb, cand_op, time_ratio, base_tcdp, emb_scales, op_scales
        )
        candidate_always = np.all(ratios < 1.0, axis=0)
        baseline_always = np.all(ratios >= 1.0, axis=0)
        return {
            "candidate_always": candidate_always,
            "baseline_always": baseline_always,
            "uncertain": ~(candidate_always | baseline_always),
        }


@dataclass(frozen=True)
class MonteCarloSamples:
    """One batch of drawn scenario samples (all arrays of length n)."""

    lifetime_months: np.ndarray
    ci_scales: np.ndarray
    yields: np.ndarray

    def __post_init__(self) -> None:
        n = self.lifetime_months.size
        if self.ci_scales.size != n or self.yields.size != n:
            raise CarbonModelError("sample arrays must share one length")

    @property
    def n(self) -> int:
        return int(self.lifetime_months.size)

    def chunk(self, start: int, stop: int) -> "MonteCarloSamples":
        return MonteCarloSamples(
            self.lifetime_months[start:stop],
            self.ci_scales[start:stop],
            self.yields[start:stop],
        )


def draw_monte_carlo_samples(
    nominal: ScenarioParameters,
    n_samples: int,
    lifetime_sigma_months: float = 3.0,
    ci_log_sigma: float = 0.5,
    yield_low: float = 0.10,
    yield_high: float = 0.90,
    rng: Optional[np.random.Generator] = None,
) -> MonteCarloSamples:
    """Draw every sample for one Monte Carlo sweep in three batched calls.

    Lifetime ~ Normal(nominal, sigma) truncated at > 0, CI_use scale ~
    LogNormal(0, ci_log_sigma), candidate yield ~ Uniform[low, high].
    Drawing is separated from evaluation so the batched engine, the
    legacy per-sample loop, the chunked parallel path, and the sweep
    cache all consume the *same* sample set for a given generator state.
    """
    if n_samples <= 0:
        raise CarbonModelError(f"n_samples must be > 0, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    lifetimes = np.maximum(
        1e-3,
        rng.normal(
            nominal.lifetime_months, lifetime_sigma_months, size=n_samples
        ),
    )
    ci_scales = np.exp(rng.normal(0.0, ci_log_sigma, size=n_samples))
    yields = rng.uniform(yield_low, yield_high, size=n_samples)
    return MonteCarloSamples(lifetimes, ci_scales, yields)


def _mc_chunk_win_counts(
    payload: Tuple[ScenarioParameters, np.ndarray, np.ndarray, MonteCarloSamples],
) -> np.ndarray:
    """Win counts over one sample chunk: shape (op_scales, emb_scales).

    The chunk is one array-valued :class:`ScenarioParameters`, so its
    carbon components come from the same formula, element for element,
    as the legacy loop's per-sample scenarios.
    """
    nominal, x, y, samples = payload
    scenario = replace(
        nominal,
        lifetime_months=samples.lifetime_months,
        ci_use_scale=nominal.ci_use_scale * samples.ci_scales,
        candidate_yield=samples.yields,
    )
    cand_emb, cand_op, base_emb, base_op = scenario.components()
    ratios = batched_ratio_grid(
        cand_emb,
        cand_op,
        scenario.execution_time_ratio,
        (base_emb + base_op) * 1.0,  # baseline execution time is 1 s
        x,
        y,
    )
    return np.count_nonzero(ratios < 1.0, axis=0)


def _default_chunk_size(n_samples: int, grid_points: int) -> int:
    """Samples per chunk bounding the (chunk, y, x) tensor to ~16 MiB."""
    budget = 1 << 21  # float64 elements
    return max(1, min(n_samples, budget // max(1, grid_points)))


def monte_carlo_win_probability(
    nominal: ScenarioParameters,
    emb_scales: np.ndarray,
    op_scales: np.ndarray,
    n_samples: int = 1000,
    lifetime_sigma_months: float = 3.0,
    ci_log_sigma: float = 0.5,
    yield_low: float = 0.10,
    yield_high: float = 0.90,
    rng: Optional[np.random.Generator] = None,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    cache: "Union[SweepCache, None, bool]" = None,
) -> np.ndarray:
    """Probability (per grid point) that the candidate has better tCDP.

    Samples lifetime ~ Normal(nominal, sigma) truncated at > 0, CI_use
    scale ~ LogNormal(0, ci_log_sigma), and candidate yield ~ Uniform
    [yield_low, yield_high]; evaluates the win indicator for all samples
    at once as a batched (samples, op_scales, emb_scales) grid.

    Args:
        jobs: fan sample chunks out over the runtime process pool
            (``1`` = in-process, ``None`` = one worker per CPU).  The
            result is identical for any ``jobs``/``chunk_size``.
        chunk_size: samples per evaluation chunk; ``None`` auto-sizes to
            bound peak memory.
        cache: a :class:`repro.runtime.cache.SweepCache`, ``True`` for
            the default cache directory, or ``None``/``False`` to skip
            memoization.  The key covers the scenario, both grid axes,
            and the drawn samples, so a hit is exact; the generator is
            advanced identically either way.

    Returns:
        Array of shape (len(op_scales), len(emb_scales)) of win
        probabilities in [0, 1].
    """
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    metrics = obs.get_metrics()
    with obs.span(
        "mc.win_probability", samples=n_samples, grid=x.size * y.size
    ) as sp:
        samples = draw_monte_carlo_samples(
            nominal,
            n_samples,
            lifetime_sigma_months=lifetime_sigma_months,
            ci_log_sigma=ci_log_sigma,
            yield_low=yield_low,
            yield_high=yield_high,
            rng=rng,
        )

        sweep_cache = None
        payload = None
        if cache is not None and cache is not False:
            from repro.runtime.cache import SweepCache

            sweep_cache = (
                cache if isinstance(cache, SweepCache) else SweepCache()
            )
            payload = {
                "kind": "monte-carlo-win-probability",
                "nominal": sorted(
                    (k, v) for k, v in vars(nominal).items()
                ),
                "emb_scales": x,
                "op_scales": y,
                "lifetime_months": samples.lifetime_months,
                "ci_scales": samples.ci_scales,
                "yields": samples.yields,
            }
            hit = sweep_cache.get(payload)
            if hit is not None:
                sp.set(cache="hit")
                return hit

        chunk = (
            chunk_size
            if chunk_size is not None
            else _default_chunk_size(n_samples, x.size * y.size)
        )
        if chunk < 1:
            raise CarbonModelError(f"chunk_size must be >= 1, got {chunk}")
        bounds = list(range(0, n_samples, chunk))
        chunks = [
            (nominal, x, y, samples.chunk(start, start + chunk))
            for start in bounds
        ]
        metrics.counter("mc.samples").inc(n_samples)
        metrics.counter("mc.batches").inc(len(chunks))
        sp.set(batches=len(chunks))
        if jobs == 1 or len(chunks) == 1:
            counts = []
            for i, c in enumerate(chunks):
                with obs.span("mc.batch", index=i, samples=c[3].n):
                    counts.append(_mc_chunk_win_counts(c))
        else:
            from repro.runtime.parallel import map_parallel

            counts = map_parallel(
                _mc_chunk_win_counts, chunks, jobs=jobs, label="mc.batch"
            )
        wins = np.sum(counts, axis=0, dtype=float)
        probability = wins / n_samples
        if sweep_cache is not None and payload is not None:
            sweep_cache.put(payload, probability)
        return probability


def monte_carlo_win_probability_legacy(
    nominal: ScenarioParameters,
    emb_scales: np.ndarray,
    op_scales: np.ndarray,
    n_samples: int = 1000,
    lifetime_sigma_months: float = 3.0,
    ci_log_sigma: float = 0.5,
    yield_low: float = 0.10,
    yield_high: float = 0.90,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """The per-sample reference loop the batched engine is checked against.

    Consumes the same batched sample draw, then rebuilds
    :class:`ScenarioParameters` and evaluates ``ratio_grid`` one sample
    at a time.  For any fixed generator state the result is bit-identical
    to :func:`monte_carlo_win_probability`.
    """
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    samples = draw_monte_carlo_samples(
        nominal,
        n_samples,
        lifetime_sigma_months=lifetime_sigma_months,
        ci_log_sigma=ci_log_sigma,
        yield_low=yield_low,
        yield_high=yield_high,
        rng=rng,
    )
    wins = np.zeros((y.size, x.size), dtype=float)
    for i in range(samples.n):
        params = replace(
            nominal,
            lifetime_months=float(samples.lifetime_months[i]),
            ci_use_scale=nominal.ci_use_scale * float(samples.ci_scales[i]),
            candidate_yield=float(samples.yields[i]),
        )
        ratio = params.tradeoff_map().ratio_grid(x, y)
        wins += (ratio < 1.0).astype(float)
    return wins / n_samples

"""Modified-nodal-analysis system assembly and Newton iteration core."""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import obs
from repro.errors import ConvergenceError
from repro.spice.netlist import Circuit, SolverCounts

#: Conductance from every node to ground, for numerical regularization
#: (keeps floating nodes solvable and Jacobians non-singular).
DEFAULT_GMIN = 1e-12

#: Newton damping: largest voltage change applied per iteration.
MAX_NEWTON_STEP_V = 0.5


def _max_abs(values: List[float]) -> float:
    """``max(|x|)`` as ``np.max(np.abs(values))`` gives it: NaN as soon
    as any entry is NaN (Python's ``max`` alone would skip it)."""
    total = sum(values)
    if total != total and any(x != x for x in values):
        return math.nan
    return max(map(abs, values))


def newton_solve(
    circuit: Circuit,
    v0: np.ndarray,
    t: float,
    dt: Optional[float],
    v_prev: Optional[np.ndarray],
    gmin: float = DEFAULT_GMIN,
    max_iterations: int = 100,
    abstol: float = 1e-9,
    vtol: float = 1e-7,
) -> np.ndarray:
    """Damped Newton-Raphson on the MNA equations.

    Convergence requires both a small residual (KCL satisfied to
    ``abstol`` amperes) and a small last voltage update (``vtol`` volts).
    Iterates are lists of floats between the circuit's generated
    assembler and ``np.linalg.solve``; iterations and backtracks are
    tallied in ``circuit.solver_counts`` once per solve.

    Raises :class:`ConvergenceError` if the iteration limit is reached.
    """
    assemble = circuit.assembler(transient=dt is not None)
    n = len(v0)
    p = None if v_prev is None else v_prev.tolist()
    v = v0.tolist()
    residual, jacobian = assemble(v, p, t, dt, gmin)
    residual_norm = _max_abs(residual)
    iterations = backtracks = 0
    try:
        for iterations in range(1, max_iterations + 1):
            try:
                delta = np.linalg.solve(
                    np.array(jacobian).reshape(n, n),
                    np.array([-r for r in residual]),
                ).tolist()
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"{circuit.name!r}: singular Jacobian at t={t:g}"
                ) from exc
            # Damp large steps to keep exponential devices stable.  The
            # cap scales with the current solution magnitude so linear
            # circuits with large node voltages still converge
            # geometrically.
            step_cap = max(MAX_NEWTON_STEP_V, 2.0 * _max_abs(v))
            max_step = _max_abs(delta)
            if max_step > step_cap:
                shrink = step_cap / max_step
                delta = [d * shrink for d in delta]
            # Backtracking line search: stacked exponential devices make
            # full Newton steps oscillate; halve until the residual
            # improves.
            scale = 1.0
            for _backtrack in range(12):
                v_try = [x + scale * d for x, d in zip(v, delta)]
                res_try, jac_try = assemble(v_try, p, t, dt, gmin)
                norm_try = _max_abs(res_try)
                if norm_try <= residual_norm or norm_try < abstol:
                    break
                scale *= 0.5
                backtracks += 1
            v = [x + scale * d for x, d in zip(v, delta)]
            residual, jacobian = res_try, jac_try
            applied = _max_abs([scale * d for d in delta])
            converged_v = applied < vtol
            converged_r = norm_try < abstol
            residual_norm = norm_try
            if converged_v and converged_r:
                return np.array(v)
    finally:
        counts = circuit.solver_counts
        counts.newton_solves += 1
        counts.newton_iterations += iterations
        counts.backtracks += backtracks
    raise ConvergenceError(
        f"{circuit.name!r}: Newton failed to converge at t={t:g} "
        f"after {max_iterations} iterations"
    )


@contextmanager
def booked_counts(circuit: Circuit) -> Iterator[SolverCounts]:
    """Yield ``circuit.solver_counts``; on exit, add the analysis's
    share of them (the growth inside the block) to the ``spice.*``
    counters of :mod:`repro.obs`."""
    counts = circuit.solver_counts
    before = dataclasses.replace(counts)
    try:
        yield counts
    finally:
        metrics = obs.get_metrics()
        if metrics.enabled:
            for field in dataclasses.fields(SolverCounts):
                metrics.counter(f"spice.{field.name}").inc(
                    getattr(counts, field.name) - getattr(before, field.name)
                )


def solution_dict(circuit: Circuit, v: np.ndarray) -> Dict[str, float]:
    """Node name -> voltage (ground included as 0.0)."""
    out = {"0": 0.0}
    for node, idx in circuit.unknown_index().items():
        if idx >= 0:
            out[node] = float(v[idx])
    return out

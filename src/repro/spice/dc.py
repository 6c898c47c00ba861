"""DC operating-point analysis with source stepping."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.spice.elements import VoltageSource
from repro.spice.mna import (
    DEFAULT_GMIN,
    booked_counts,
    newton_solve,
    solution_dict,
)
from repro.spice.netlist import Circuit
from repro.spice.waveform import Dc


class _ScaledDrive:
    """Wraps a drive, scaling its value — used for source stepping."""

    def __init__(self, drive, scale: float) -> None:
        self._drive = drive
        self.scale = scale

    def at(self, t: float) -> float:
        return self._drive.at(t) * self.scale


def dc_operating_point(
    circuit: Circuit,
    initial_guess: Optional[Dict[str, float]] = None,
    gmin: float = DEFAULT_GMIN,
) -> Dict[str, float]:
    """Solve for the DC operating point (capacitors open).

    Strategy: plain Newton from the initial guess (zeros by default); on
    failure, source stepping — ramp all independent voltage sources from
    0 to 100 % in increments, reusing each converged solution as the next
    starting point.

    Returns:
        Node name -> voltage.  Time-varying sources are evaluated at t=0.
    """
    circuit.validate()
    with booked_counts(circuit):
        return _operating_point(circuit, initial_guess, gmin)


def _operating_point(
    circuit: Circuit,
    initial_guess: Optional[Dict[str, float]],
    gmin: float,
) -> Dict[str, float]:
    n = circuit.n_unknowns()
    v0 = np.zeros(n)
    if initial_guess:
        index = circuit.unknown_index()
        for node, value in initial_guess.items():
            idx = index.get(node, -1)
            if idx >= 0:
                v0[idx] = value
    try:
        v = newton_solve(circuit, v0, t=0.0, dt=None, v_prev=None, gmin=gmin)
        return solution_dict(circuit, v)
    except ConvergenceError:
        pass

    # Source stepping fallback.
    sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
    originals = [s.drive for s in sources]
    scaled = [_ScaledDrive(d, 0.0) for d in originals]
    for s, wrapped in zip(sources, scaled):
        s.drive = wrapped
    try:
        v = np.zeros(n)
        for scale in np.linspace(0.1, 1.0, 10):
            for wrapped in scaled:
                wrapped.scale = float(scale)
            v = newton_solve(
                circuit, v, t=0.0, dt=None, v_prev=None, gmin=gmin
            )
        return solution_dict(circuit, v)
    finally:
        for s, original in zip(sources, originals):
            s.drive = original


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: "list[float]",
) -> "list[Dict[str, float]]":
    """Sweep a voltage source through ``values``; returns one operating
    point per value.  The source's drive is restored afterwards."""
    source = circuit.element(source_name)
    if not isinstance(source, VoltageSource):
        raise ConvergenceError(f"{source_name!r} is not a voltage source")
    original = source.drive
    results = []
    guess: Optional[Dict[str, float]] = None
    try:
        for value in values:
            source.drive = Dc(value)
            guess = dc_operating_point(circuit, initial_guess=guess)
            results.append(guess)
    finally:
        source.drive = original
    return results

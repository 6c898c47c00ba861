"""The compiled MNA assembler: cache invalidation, drive swaps, and the
source-stepping fallback.

A circuit compiles on its first analysis and recompiles after
``Circuit.add``; drives are read on every call.  Either way the answers
must match a freshly built circuit bit for bit.
"""

import importlib
import math

import numpy as np
import pytest

from repro import obs
from repro.devices import si_nfet, si_pfet
from repro.errors import ConvergenceError
from repro.spice import (
    Capacitor,
    Circuit,
    Dc,
    FetElement,
    Pulse,
    Resistor,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.spice.dc import dc_sweep
from repro.spice.mna import DEFAULT_GMIN, _max_abs, newton_solve

# The package re-exports the ``transient`` function under the module's name.
transient_module = importlib.import_module("repro.spice.transient")


def _rc_stage(circuit: Circuit) -> Circuit:
    circuit.add(
        VoltageSource(
            "vin", "in", "0", Pulse(0.0, 0.7, delay=20e-12, rise=10e-12, width=1e-6)
        )
    )
    circuit.add(Resistor("r1", "in", "a", 5e3))
    circuit.add(Capacitor("c1", "a", "0", 2e-15))
    return circuit


def _inverter_stage(circuit: Circuit) -> Circuit:
    circuit.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    circuit.add(FetElement("mp", si_pfet("p", 0.2), "out", "a", "vdd"))
    circuit.add(FetElement("mn", si_nfet("n", 0.1), "out", "a", "0"))
    circuit.add(Capacitor("cl", "out", "0", 1e-15))
    return circuit


def _inverter(vin: float) -> Circuit:
    circuit = Circuit("inverter")
    circuit.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    circuit.add(VoltageSource("vin", "in", "0", Dc(vin)))
    circuit.add(FetElement("mp", si_pfet("p", 0.2), "out", "in", "vdd"))
    circuit.add(FetElement("mn", si_nfet("n", 0.1), "out", "in", "0"))
    return circuit


def _waveform_bytes(result) -> dict:
    out = {"t": result.times.tobytes()}
    out.update({k: v.tobytes() for k, v in result.node_voltages.items()})
    out.update({k: v.tobytes() for k, v in result.branch_currents.items()})
    return out


def _run(circuit: Circuit):
    return transient(circuit, t_stop=0.3e-9, dt=2e-12, use_dc_start=False)


class TestAssemblerCache:
    def test_grown_circuit_matches_fresh_build(self):
        grown = _rc_stage(Circuit("grown"))
        _run(grown)
        assert grown.solver_counts.circuits_compiled == 1
        _inverter_stage(grown)
        result = _run(grown)
        assert grown.solver_counts.circuits_compiled == 2

        fresh = _inverter_stage(_rc_stage(Circuit("fresh")))
        expected = _run(fresh)
        assert _waveform_bytes(result) == _waveform_bytes(expected)
        # The inverter actually switched: the rebuild took effect.
        assert result.node_voltages["out"][-1] < 0.1

    def test_compiles_once_per_netlist(self):
        circuit = _inverter(0.3)
        dc_operating_point(circuit)
        _run(circuit)
        assert circuit.solver_counts.circuits_compiled == 1

    def test_dc_sweep_matches_fresh_operating_points(self):
        values = [0.0, 0.2, 0.3, 0.35, 0.4, 0.7]
        sweep = dc_sweep(_inverter(0.0), "vin", values)
        guess = None
        for value, point in zip(values, sweep):
            # dc_sweep warm-starts each point from the previous one.
            fresh = dc_operating_point(_inverter(value), initial_guess=guess)
            assert point == fresh
            assert all(
                np.float64(point[k]).tobytes() == np.float64(fresh[k]).tobytes()
                for k in point
            )
            guess = fresh


class TestHalfStepRetry:
    """A full step that fails to converge is retried as two half steps."""

    DT = 2e-12
    FAILING_STEP = 15  # on the input edge (delay 20 ps, rise 10 ps)

    def test_retry_counted_and_stored(self, clean_obs, monkeypatch):
        circuit = _rc_stage(Circuit("rc"))
        fail_at = self.FAILING_STEP * self.DT
        failed = []

        def flaky_newton(circuit, v0, t, dt, v_prev, gmin=DEFAULT_GMIN):
            if dt == self.DT and math.isclose(t, fail_at) and not failed:
                failed.append(t)
                raise ConvergenceError("injected full-step failure")
            return newton_solve(circuit, v0, t=t, dt=dt, v_prev=v_prev, gmin=gmin)

        monkeypatch.setattr(transient_module, "newton_solve", flaky_newton)
        with obs.enabled_scope():
            result = transient(
                circuit, t_stop=0.1e-9, dt=self.DT, use_dc_start=False
            )
            counters = obs.get_metrics().snapshot()["counters"]
        assert len(failed) == 1
        assert circuit.solver_counts.half_step_retries == 1
        assert counters["spice.half_step_retries"] == 1

        # The stored step is the two half-step solves from the step
        # before, bit for bit.
        k = self.FAILING_STEP
        index = circuit.unknown_index()
        offsets = circuit.branch_offsets()
        v_prev = np.zeros(circuit.n_unknowns())
        for node, idx in index.items():
            if idx >= 0:
                v_prev[idx] = result.node_voltages[node][k - 1]
        for name, off in offsets.items():
            v_prev[off] = result.branch_currents[name][k - 1]
        t = result.times[k]
        half = newton_solve(
            circuit, v_prev, t=t - self.DT / 2, dt=self.DT / 2, v_prev=v_prev
        )
        expected = newton_solve(circuit, half, t=t, dt=self.DT / 2, v_prev=half)
        for node, idx in index.items():
            if idx >= 0:
                assert result.node_voltages[node][k] == expected[idx]
        for name, off in offsets.items():
            assert result.branch_currents[name][k] == expected[off]


class TestSourceStepping:
    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_unusable_guess_recovers_by_source_stepping(self, guess):
        """A NaN/inf start makes plain Newton fail (every residual norm
        is NaN); source stepping restarts from zeros and converges."""
        circuit = _inverter(0.3)
        drives = [e.drive for e in circuit.elements if hasattr(e, "drive")]
        op = dc_operating_point(circuit, initial_guess={"out": guess})
        counts = circuit.solver_counts
        # One failed plain solve at the iteration limit, then ten
        # source-stepping solves.
        assert counts.newton_solves == 11
        assert counts.newton_iterations > 100
        assert op["out"] == pytest.approx(
            dc_operating_point(_inverter(0.3))["out"], abs=1e-6
        )
        assert op["out"] == pytest.approx(0.6723, abs=1e-3)
        # The stepped drives were swapped back.
        assert drives == [e.drive for e in circuit.elements if hasattr(e, "drive")]


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -2.0, 1.0],
        [-0.0, 0.0],
        [math.nan, 1.0, 2.0],
        [1.0, math.nan, 2.0],
        [1.0, 2.0, math.nan],
        [math.inf, -math.inf, 1.0],
        [1.0, -math.inf, math.nan],
    ],
)
def test_max_abs_matches_numpy(values):
    """Newton's norms follow np.max(np.abs(.)), NaN included."""
    expected = np.max(np.abs(np.array(values)))
    got = _max_abs(values)
    assert np.float64(got).tobytes() == expected.tobytes()

"""Circuit elements.

Every element emits its own lines of the circuit's generated MNA
assembler (:mod:`repro.spice.assembler`): the terms it adds to the
residual vector and Jacobian.  The sign convention: the residual of a
node equation is the sum of currents flowing OUT of the node; the solver
drives all residuals to zero.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.virtual_source import VirtualSourceFET
from repro.errors import NetlistError
from repro.spice.waveform import Dc

#: Central-difference step (V) of the FET small-signal conductances.
FET_STENCIL_DV = 1e-5


class Element:
    """Base class: two-or-more-terminal circuit element."""

    def __init__(self, name: str, nodes: "tuple[str, ...]") -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.nodes = nodes

    #: Number of extra MNA unknowns (branch currents) this element needs.
    n_branches = 0

    def emit(self, asm) -> None:
        """Add this element's lines and terms to ``asm``, an
        :class:`~repro.spice.assembler.AssemblerSource` for one
        analysis mode (``asm.transient`` is False for DC)."""
        raise NotImplementedError


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        super().__init__(name, (n1, n2))
        if resistance <= 0:
            raise NetlistError(f"{name}: resistance must be > 0")
        self.resistance = resistance

    def emit(self, asm) -> None:
        a, b = asm.node(self.nodes[0]), asm.node(self.nodes[1])
        g = asm.bind(1.0 / self.resistance)
        current = asm.let(f"{g} * ({asm.v(a)} - {asm.v(b)})")
        asm.conductance(a, b, current, g)


def _emit_capacitance(asm, a: int, b: int, capacitance: float) -> None:
    """Backward-Euler companion of a capacitor between unknowns a, b."""
    g = asm.let(f"{asm.bind(capacitance)} / dt")
    current = asm.let(
        f"{g} * ({asm.v(a)} - {asm.v(b)} - "
        f"({asm.v_prev(a)} - {asm.v_prev(b)}))"
    )
    asm.conductance(a, b, current, g)


class Capacitor(Element):
    """Linear capacitor; open in DC, backward-Euler companion in transient.

    Args:
        ic: Optional initial voltage across the capacitor, applied when
            the transient starts from scratch (no DC solution supplied).
    """

    def __init__(
        self, name: str, n1: str, n2: str, capacitance: float,
        ic: Optional[float] = None,
    ) -> None:
        super().__init__(name, (n1, n2))
        if capacitance <= 0:
            raise NetlistError(f"{name}: capacitance must be > 0")
        self.capacitance = capacitance
        self.ic = ic

    def emit(self, asm) -> None:
        if asm.transient:  # open circuit in DC
            _emit_capacitance(
                asm,
                asm.node(self.nodes[0]),
                asm.node(self.nodes[1]),
                self.capacitance,
            )


class CurrentSource(Element):
    """Independent current source; current flows from n1 through the
    source to n2 (i.e. out of n2 into the circuit)."""

    def __init__(self, name: str, n1: str, n2: str, drive) -> None:
        super().__init__(name, (n1, n2))
        self.drive = drive if hasattr(drive, "at") else Dc(float(drive))

    def emit(self, asm) -> None:
        a, b = asm.node(self.nodes[0]), asm.node(self.nodes[1])
        i = asm.let(f"{asm.bind(self)}.drive.at(t)")
        asm.res(a, f"+ {i}")
        asm.res(b, f"- {i}")


class VoltageSource(Element):
    """Independent voltage source with an MNA branch current.

    Positive terminal is ``n1``; the branch current unknown is the current
    flowing from n1 through the source to n2.
    """

    n_branches = 1

    def __init__(self, name: str, n1: str, n2: str, drive) -> None:
        super().__init__(name, (n1, n2))
        self.drive = drive if hasattr(drive, "at") else Dc(float(drive))

    def emit(self, asm) -> None:
        a, b = asm.node(self.nodes[0]), asm.node(self.nodes[1])
        k = asm.branch(self)
        # KCL: branch current leaves n1, enters n2.
        asm.res(a, f"+ {asm.v(k)}")
        asm.res(b, f"- {asm.v(k)}")
        asm.jac(a, k, "+ 1.0")
        asm.jac(b, k, "- 1.0")
        # Branch equation: v(n1) - v(n2) - V(t) = 0.
        residual = asm.let(
            f"{asm.v(a)} - {asm.v(b)} - {asm.bind(self)}.drive.at(t)"
        )
        asm.res(k, f"+ {residual}")
        asm.jac(k, a, "+ 1.0")
        asm.jac(k, b, "- 1.0")


class FetElement(Element):
    """A FET instance wired (drain, gate, source).

    The channel current, gm and gds come from the device's fused kernel
    (:meth:`VirtualSourceFET.ids_kernel`); gate capacitance is split
    half to the source and half to the drain (a standard quasi-static
    simplification) unless ``include_gate_caps=False``.  The device's
    parameters, polarity and width are read when the circuit compiles.
    """

    def __init__(
        self,
        name: str,
        fet: VirtualSourceFET,
        drain: str,
        gate: str,
        source: str,
        include_gate_caps: bool = True,
    ) -> None:
        super().__init__(name, (drain, gate, source))
        self.fet = fet
        self.include_gate_caps = include_gate_caps

    def emit(self, asm) -> None:
        d, g, s = (asm.node(n) for n in self.nodes)
        vd, vg, vs = asm.v(d), asm.v(g), asm.v(s)
        kernel = asm.bind(self.fet.ids_kernel(FET_STENCIL_DV))
        ids, gm, gds = asm.let(f"{kernel}({vg} - {vs}, {vd} - {vs})", 3)
        # Channel current flows d -> s inside the device.
        asm.res(d, f"+ {ids}")
        asm.res(s, f"- {ids}")
        g_ss = asm.let(f"-{gm} - {gds}")
        for row, sign in ((d, "+"), (s, "-")):
            asm.jac(row, g, f"{sign} {gm}")
            asm.jac(row, d, f"{sign} {gds}")
            asm.jac(row, s, f"{sign} {g_ss}")
        if self.include_gate_caps and asm.transient:
            c_half = self.fet.gate_capacitance_f() / 2.0
            for other in (d, s):
                _emit_capacitance(asm, g, other, c_half)

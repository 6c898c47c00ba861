"""Circuit container: nodes, elements, and MNA bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.spice.assembler import Assembler, compile_assemblers
from repro.spice.elements import Element

#: The ground node name; its voltage is fixed at zero and eliminated.
GROUND = "0"


@dataclass
class SolverCounts:
    """Cumulative engine-health tallies of one circuit's analyses."""

    circuits_compiled: int = 0
    newton_solves: int = 0
    newton_iterations: int = 0
    backtracks: int = 0
    half_step_retries: int = 0


class Circuit:
    """A flat netlist of elements over named nodes."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._elements: List[Element] = []
        self._element_names: set = set()
        self._nodes: Dict[str, int] = {}
        self._assemblers: Optional[Tuple[Assembler, Assembler]] = None
        self.solver_counts = SolverCounts()

    # -- construction ----------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add an element; registers its nodes.  Returns the element."""
        if element.name in self._element_names:
            raise NetlistError(
                f"duplicate element name {element.name!r} in {self.name!r}"
            )
        for node in element.nodes:
            self._register_node(node)
        self._element_names.add(element.name)
        self._elements.append(element)
        self._assemblers = None
        return element

    def _register_node(self, node: str) -> None:
        if not node:
            raise NetlistError("node name must be non-empty")
        if node == GROUND:
            return
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)

    # -- introspection -----------------------------------------------------
    @property
    def elements(self) -> "tuple[Element, ...]":
        return tuple(self._elements)

    @property
    def nodes(self) -> "tuple[str, ...]":
        """Non-ground nodes in registration order."""
        return tuple(self._nodes)

    def element(self, name: str) -> Element:
        for e in self._elements:
            if e.name == name:
                return e
        raise NetlistError(f"no element named {name!r}")

    def has_node(self, node: str) -> bool:
        return node == GROUND or node in self._nodes

    # -- MNA indexing -------------------------------------------------------
    def unknown_index(self) -> Dict[str, int]:
        """Node name -> unknown index; ground maps to -1."""
        index = {GROUND: -1}
        index.update(self._nodes)
        return index

    def n_unknowns(self) -> int:
        """Node voltages plus voltage-source branch currents."""
        return len(self._nodes) + self.n_branch_unknowns()

    def n_branch_unknowns(self) -> int:
        return sum(e.n_branches for e in self._elements)

    def branch_offsets(self) -> Dict[str, int]:
        """Element name -> first branch-unknown index (for those that
        carry branch currents)."""
        offsets: Dict[str, int] = {}
        next_offset = len(self._nodes)
        for e in self._elements:
            if e.n_branches:
                offsets[e.name] = next_offset
                next_offset += e.n_branches
        return offsets

    def assembler(self, transient: bool) -> Assembler:
        """The generated MNA assembler for transient (or DC) analysis.

        Both modes compile together on first use and are rebuilt after
        :meth:`add` changes the netlist (see :mod:`repro.spice.assembler`).
        """
        if self._assemblers is None:
            self._assemblers = compile_assemblers(self)
            self.solver_counts.circuits_compiled += 1
        return self._assemblers[transient]

    def validate(self) -> None:
        """Check the netlist is simulatable: non-empty and grounded."""
        if not self._elements:
            raise NetlistError(f"{self.name!r}: empty circuit")
        grounded = any(GROUND in e.nodes for e in self._elements)
        if not grounded:
            raise NetlistError(
                f"{self.name!r}: no element connects to ground ('0')"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, nodes={len(self._nodes)}, "
            f"elements={len(self._elements)})"
        )

"""Compile a netlist into straight-line MNA assembler functions.

On its first analysis a :class:`~repro.spice.netlist.Circuit` becomes
Python source with two functions, one per analysis mode::

    def dc(x, p, t, dt, gmin): ...        # capacitors open
    def transient(x, p, t, dt, gmin): ... # backward-Euler companions

Both take the Newton estimate ``x`` and the previous step ``p`` as
lists of floats and return ``(residual, jacobian)``: the residual as a
list and the row-major Jacobian as one flat list.  Unknown indices are
constants, ground rows and columns are left out, resistor conductances
and FET gate-capacitance halves are precomputed, and ``dt``, ``p`` and
``gmin`` arrive at call time.  Source drives are looked up through the
element on every call, so swapping ``element.drive`` (source stepping,
DC sweeps) needs no rebuild.

Each element type emits its own lines (``Element.emit``).  Every entry
sums its terms in element order, then gmin, starting from ``0.0``: the
same float additions, in the same order, as accumulating each stamp
into a zeroed array, so the generated assembler is bit-identical to
stamping the netlist element by element.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: ``assemble(x, p, t, dt, gmin) -> (residual, flat row-major jacobian)``.
Assembler = Callable[..., Tuple[List[float], List[float]]]


class AssemblerSource:
    """The source of one analysis mode's assembler, built element by
    element.  Elements read unknowns through :meth:`v`/:meth:`v_prev`,
    name intermediate values with :meth:`let`, and add signed terms
    (``"+ name"`` or ``"- name"``) to entries with :meth:`res` and
    :meth:`jac`; terms on ground (index -1) are dropped."""

    def __init__(self, circuit, transient: bool, ns: Dict[str, Any]) -> None:
        self.transient = transient
        self._index = circuit.unknown_index()
        self._offsets = circuit.branch_offsets()
        self._n = circuit.n_unknowns()
        self._n_nodes = len(circuit.nodes)
        self._ns = ns
        self._lines: List[str] = []
        self._locals = 0
        self._residual: List[List[str]] = [[] for _ in range(self._n)]
        self._jacobian: List[List[str]] = [[] for _ in range(self._n**2)]

    # -- names -------------------------------------------------------------
    def node(self, name: str) -> int:
        """Unknown index of a node (-1 for ground)."""
        return self._index[name]

    def branch(self, element) -> int:
        """Index of an element's first branch-current unknown."""
        return self._offsets[element.name]

    @staticmethod
    def v(i: int) -> str:
        """The current estimate of unknown ``i`` (ground reads 0.0)."""
        return f"x{i}" if i >= 0 else "0.0"

    @staticmethod
    def v_prev(i: int) -> str:
        """Unknown ``i`` at the previous time step (transient only)."""
        return f"p{i}" if i >= 0 else "0.0"

    def bind(self, value: Any) -> str:
        """A global name for a compile-time object (constant, element,
        device kernel)."""
        name = f"k{len(self._ns)}"
        self._ns[name] = value
        return name

    def let(self, expr: str, count: int = 1):
        """Emit ``local = expr`` and return the local's name; with
        ``count`` > 1, unpack ``expr`` into a tuple of new locals."""
        names = tuple(f"l{self._locals + i}" for i in range(count))
        self._locals += count
        self._lines.append(f"{', '.join(names)} = {expr}")
        return names[0] if count == 1 else names

    # -- terms -------------------------------------------------------------
    def res(self, i: int, term: str) -> None:
        if i >= 0:
            self._residual[i].append(term)

    def jac(self, i: int, j: int, term: str) -> None:
        if i >= 0 and j >= 0:
            self._jacobian[i * self._n + j].append(term)

    def conductance(self, a: int, b: int, current: str, g: str) -> None:
        """A two-terminal branch carrying ``current`` from a to b with
        small-signal conductance ``g`` (resistors, companion models)."""
        self.res(a, f"+ {current}")
        self.res(b, f"- {current}")
        self.jac(a, a, f"+ {g}")
        self.jac(a, b, f"- {g}")
        self.jac(b, a, f"- {g}")
        self.jac(b, b, f"+ {g}")

    # -- output --------------------------------------------------------------
    def function(self, name: str) -> str:
        """The assembler's source, gmin (node to ground) added last."""
        for i in range(self._n_nodes):
            self.res(i, f"+ gmin * x{i}")
            self.jac(i, i, "+ gmin")
        head = [f"def {name}(x, p, t, dt, gmin):"]
        head.append("    " + "".join(f"x{i}, " for i in range(self._n)) + "= x")
        if self.transient:
            head.append(
                "    " + "".join(f"p{i}, " for i in range(self._n)) + "= p"
            )
        residual = ", ".join(_sum(terms) for terms in self._residual)
        jacobian = ", ".join(_sum(terms) for terms in self._jacobian)
        return "\n".join(
            head
            + ["    " + ln for ln in self._lines]
            + [f"    return [{residual}], [{jacobian}]", ""]
        )


def _sum(terms: List[str]) -> str:
    return "0.0 " + " ".join(terms) if terms else "0.0"


def compile_assemblers(circuit) -> Tuple[Assembler, Assembler]:
    """``(dc, transient)`` assemblers for the circuit as it is now."""
    ns: Dict[str, Any] = {}
    sources = []
    for name, transient in (("dc", False), ("transient", True)):
        source = AssemblerSource(circuit, transient, ns)
        for element in circuit.elements:
            element.emit(source)
        sources.append(source.function(name))
    code = compile("\n".join(sources), f"<mna:{circuit.name}>", "exec")
    exec(code, ns)
    return ns["dc"], ns["transient"]

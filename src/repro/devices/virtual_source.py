"""The virtual-source (VS) compact FET model (Khakifirooz et al. [37]).

The VS model expresses drain current as charge times carrier velocity at
the virtual source point:

    I_D / W = Q_ix0 * v_x0 * F_sat

with

    Q_ix0 = C_inv * n * phi_t * ln(1 + exp((V_GS - V_T_eff) / (n phi_t)))
    V_T_eff = V_T0 - delta * V_DS                       (DIBL)
    F_sat = (V_DS / V_dsat) / (1 + (V_DS / V_dsat)^beta)^(1/beta)
    V_dsat = v_x0 * L_eff / mu   (velocity/mobility-limited saturation)

It is continuous across weak and strong inversion and across linear and
saturation regions — exactly the property that makes it suitable for the
eDRAM transient simulations in Sec. III-B step 2, and the model family the
paper uses for CNFETs [27] and IGZO FETs [37], [38].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.fet import FET, Polarity
from repro.units import THERMAL_VOLTAGE_300K


@dataclass(frozen=True)
class VSParameters:
    """Width-normalized virtual-source model parameters.

    Attributes:
        vt0_v: Threshold voltage at V_DS = 0.
        n_ss: Subthreshold ideality factor; SS = n_ss * phi_t * ln(10).
        dibl_v_per_v: DIBL coefficient delta (V_T shift per volt of V_DS).
        c_inv_f_per_um2: Inversion capacitance per gate area (F/um^2).
        l_gate_um: Gate length (um).
        v_x0_cm_per_s: Virtual-source carrier velocity (cm/s).
        mobility_cm2_per_vs: Low-field carrier mobility (cm^2/V.s).
        c_gate_f_per_um: Total gate capacitance per um width (F/um),
            including parasitics; used for transient simulation.
        i_leak_floor_a_per_um: Bias-independent leakage floor (A/um),
            e.g. metallic-CNT or gate leakage contributions.
        vdd_v: Nominal supply of the technology.
    """

    vt0_v: float
    n_ss: float
    dibl_v_per_v: float
    c_inv_f_per_um2: float
    l_gate_um: float
    v_x0_cm_per_s: float
    mobility_cm2_per_vs: float
    c_gate_f_per_um: float
    i_leak_floor_a_per_um: float = 0.0
    vdd_v: float = 0.7
    beta_sat: float = 1.8

    def __post_init__(self) -> None:
        checks = {
            "n_ss": self.n_ss,
            "c_inv_f_per_um2": self.c_inv_f_per_um2,
            "l_gate_um": self.l_gate_um,
            "v_x0_cm_per_s": self.v_x0_cm_per_s,
            "mobility_cm2_per_vs": self.mobility_cm2_per_vs,
            "c_gate_f_per_um": self.c_gate_f_per_um,
            "vdd_v": self.vdd_v,
            "beta_sat": self.beta_sat,
        }
        for name, value in checks.items():
            if value <= 0:
                raise ValueError(f"VS parameter {name} must be > 0, got {value}")
        if self.dibl_v_per_v < 0:
            raise ValueError("DIBL must be >= 0")
        if self.i_leak_floor_a_per_um < 0:
            raise ValueError("leakage floor must be >= 0")

    @property
    def phi_t(self) -> float:
        return THERMAL_VOLTAGE_300K

    @property
    def subthreshold_slope_mv_per_dec(self) -> float:
        """SS = n * phi_t * ln(10), in mV/decade."""
        return self.n_ss * self.phi_t * math.log(10.0) * 1000.0

    @property
    def v_dsat_v(self) -> float:
        """Saturation voltage: v_x0 * L / mu (velocity-saturation form).

        Units: v_x0 [cm/s] * L [um -> cm] / mu [cm^2/Vs] = volts.
        """
        l_cm = self.l_gate_um * 1e-4
        return self.v_x0_cm_per_s * l_cm / self.mobility_cm2_per_vs


class VirtualSourceFET(FET):
    """A FET instance: VS parameters + polarity + width."""

    def __init__(
        self,
        name: str,
        polarity: Polarity,
        width_um: float,
        params: VSParameters,
    ) -> None:
        super().__init__(name, polarity, width_um)
        self.params = params

    @property
    def vdd_v(self) -> float:
        return self.params.vdd_v

    def _ids_forward_per_um(self, vgs: float, vds: float) -> float:
        return _forward_per_um(self.params)(vgs, vds)

    def gate_capacitance_f(self) -> float:
        return self.params.c_gate_f_per_um * self.width_um

    def transconductance(self, vgs: float, vds: float, dv: float = 1e-4):
        """(gm, gds) by central finite differences (see :meth:`ids_kernel`)."""
        _ids, gm, gds = self.ids_kernel(dv)(vgs, vds)
        return gm, gds

    def ids_kernel(self, dv: float):
        """A fused ``kernel(vgs, vds) -> (ids, gm, gds)`` for the circuit
        simulator's Newton loop.

        ``ids`` is :meth:`ids` bit for bit: both run
        :func:`_forward_per_um`, and the reflection below is
        :meth:`FET.ids`'s.  gm and gds are central differences with step
        ``dv``.  Parameters, polarity and width are read when the kernel
        is built.  The kernel is scalar by design, hence its RPL014
        pragma; ``tests/devices/test_virtual_source.py`` pins it to
        :meth:`ids` bit for bit.
        """
        forward = _forward_per_um(self.params)
        sign, width = self.polarity.value, self.width_um
        two_dv = 2 * dv

        def ids(vgs: float, vds: float) -> float:
            vgs_n, vds_n = sign * vgs, sign * vds
            if vds_n >= 0:  # repro-lint: disable=RPL014 - scalar FET kernel
                current = forward(vgs_n, vds_n)
            else:
                current = -forward(vgs_n - vds_n, -vds_n)
            return sign * current * width

        def kernel(vgs: float, vds: float):
            return (
                ids(vgs, vds),
                (ids(vgs + dv, vds) - ids(vgs - dv, vds)) / two_dv,
                (ids(vgs, vds + dv) - ids(vgs, vds - dv)) / two_dv,
            )

        return kernel


def _forward_per_um(p: VSParameters):
    """``forward(vgs, vds)``: the VS drain current (A/um) for
    NMOS-convention ``vgs`` and ``vds >= 0``.

    The one implementation of the model equations above.  The
    parameter-only subexpressions are evaluated once, here, and the
    per-bias operations keep the order of the equations (a hoisted
    constant is always a left-most factor).  Nothing is cached across
    calls: a FET's ``params`` may be reassigned (see
    :mod:`repro.edram.variation`).
    """
    vt0, dibl = p.vt0_v, p.dibl_v_per_v
    n_phi_t = p.n_ss * p.phi_t
    q_scale = p.c_inv_f_per_um2 * p.n_ss * p.phi_t
    l_gate = p.l_gate_um
    vdsat = max(p.v_dsat_v, 1e-6)
    beta = p.beta_sat
    inv_beta = 1.0 / beta
    v_um_per_s = p.v_x0_cm_per_s * 1e4
    leak, phi_t = p.i_leak_floor_a_per_um, p.phi_t

    def forward(vgs: float, vds: float) -> float:
        if vds == 0.0:  # repro-lint: disable=RPL004,RPL014 - exact singular point, scalar FET kernel
            return 0.0
        ratio = vds / vdsat
        f_sat = ratio / (1.0 + ratio**beta) ** inv_beta
        # DIBL-lowered threshold; softplus charge, overflow-safe.
        eta = (vgs - (vt0 - dibl * vds)) / n_phi_t
        if eta > 40.0:  # repro-lint: disable=RPL014 - scalar FET kernel
            softplus = eta
        else:
            softplus = math.log1p(math.exp(eta))  # repro-lint: disable=RPL013 - scalar FET kernel
        # Charge Q_ix0 (C/um) back to C/um^2: the division rounds, so the
        # (q * L) / L pair is kept.
        q_per_um2 = q_scale * softplus * l_gate / l_gate
        # Charge (C/um^2) * velocity (cm/s -> um/s) gives A/um.
        intrinsic = q_per_um2 * v_um_per_s * f_sat
        # The leakage floor only matters in the off state; make it decay
        # smoothly so I(vds=0) remains 0.
        floor = leak * (1.0 - math.exp(-vds / phi_t))  # repro-lint: disable=RPL013 - scalar FET kernel
        return intrinsic + floor

    return forward

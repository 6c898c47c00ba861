"""Golden SPICE outputs: the eDRAM timing check pinned to fixed values.

The values below were produced by the element-by-element stamping
solver that the compiled MNA assembler replaced; the compiled solver
must reproduce them.  Tolerances are Newton's own resolution (delays
within ``rel=1e-6``, voltages within 1e-6 V): one extra Newton
iteration moves a node by up to ``vtol`` = 1e-7 V, so a finer pin
could flake on a host whose BLAS kernel differs.
"""

import pytest

from repro.devices import si_nfet, si_pfet
from repro.edram.bitcell import m3d_bitcell, si_bitcell
from repro.edram.retention import simulate_retention_decay
from repro.edram.senseamp import simulate_sense
from repro.edram.subarray import SubArrayDesign
from repro.edram.timing import characterize, simulate_read_zero_disturb
from repro.spice import Circuit, Dc, FetElement, VoltageSource
from repro.spice.dc import dc_sweep

DELAY_REL = 1e-6
VOLT_ABS = 1e-6

CELLS = {"si": si_bitcell, "m3d": m3d_bitcell}

#: (write delay, read delay) of ``characterize`` (s).
DELAYS = {
    "si": (1.4145519417884725e-10, 9.380685420429038e-11),
    "m3d": (1.50043640882654e-09, 2.8968069269154188e-11),
}

#: RBL droop reading a stored '0' (V).
READ0_DROOP = {
    "si": 1.0650442078263822e-06,
    "m3d": 0.002085086957171689,
}

#: (t_stop, SN waveform) of a 20-step retention decay run with gmin=0.
RETENTION = {
    "si": (1e-3, (
        0.7,
        0.6863534634310725,
        0.6727088885408883,
        0.6590662485928849,
        0.6454255173765154,
        0.6317866692115083,
        0.6181496789535408,
        0.6045145220015203,
        0.5908811743067024,
        0.5772496123839191,
        0.563619813325249,
        0.5499917548165288,
        0.5363654151572053,
        0.5227407732841481,
        0.5091178088002263,
        0.49549650200869116,
        0.48187683395478303,
        0.46825878647651564,
        0.45464234226743594,
        0.44102748495546673,
        0.42741419920403206,
    )),
    "m3d": (10.0, (
        0.7,
        0.6999543621858418,
        0.6999087280716909,
        0.6998630976571535,
        0.6998174709418358,
        0.6997718479253442,
        0.6997262286072851,
        0.6996806129872649,
        0.6996350010648903,
        0.6995893928397677,
        0.6995437883115039,
        0.6994981874797054,
        0.699452590343979,
        0.6994069969039315,
        0.6993614071591697,
        0.6993158211093007,
        0.6992702387539312,
        0.6992246600926684,
        0.6991790851251192,
        0.6991335138508908,
        0.6990879462695905,
    )),
}

#: ``simulate_sense(0.05)``: delay (s), final outp and outn (V).
SENSE = (1.9975770698018873e-11, 0.699999692000373, 5.647156920734807e-07)

INVERTER_VIN = (0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7)
INVERTER_VOUT = (
    0.6999996920046646,
    0.6999858120113599,
    0.6992817065659737,
    0.6723347545139167,
    0.529058305605716,
    0.03623938552146687,
    0.0008466114443527579,
    1.6722075332062518e-05,
    3.6213681152943155e-07,
)


def inverter() -> Circuit:
    circuit = Circuit("inverter")
    circuit.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    circuit.add(VoltageSource("vin", "in", "0", Dc(0.0)))
    circuit.add(FetElement("mp", si_pfet("p", 0.2), "out", "in", "vdd"))
    circuit.add(FetElement("mn", si_nfet("n", 0.1), "out", "in", "0"))
    return circuit


@pytest.mark.smoke
class TestGoldenOutputs:
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_characterize_delays(self, cell):
        timing = characterize(SubArrayDesign(CELLS[cell]()))
        write, read = DELAYS[cell]
        assert timing.write_delay_s == pytest.approx(write, rel=DELAY_REL)
        assert timing.read_delay_s == pytest.approx(read, rel=DELAY_REL)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_read_zero_droop(self, cell):
        droop = simulate_read_zero_disturb(SubArrayDesign(CELLS[cell]()))
        assert droop == pytest.approx(READ0_DROOP[cell], rel=0, abs=VOLT_ABS)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_retention_waveform(self, cell):
        t_stop, expected = RETENTION[cell]
        sn = simulate_retention_decay(CELLS[cell](), t_stop=t_stop, n_steps=20)
        assert len(sn.values) == len(expected)
        assert list(sn.values) == pytest.approx(expected, rel=0, abs=VOLT_ABS)

    def test_sense(self):
        result = simulate_sense(0.05)
        delay, outp, outn = SENSE
        assert result.resolved_correctly
        assert result.sense_delay_s == pytest.approx(delay, rel=DELAY_REL)
        assert result.final_outp_v == pytest.approx(outp, rel=0, abs=VOLT_ABS)
        assert result.final_outn_v == pytest.approx(outn, rel=0, abs=VOLT_ABS)

    def test_inverter_dc_sweep(self):
        sweep = dc_sweep(inverter(), "vin", list(INVERTER_VIN))
        vout = [point["out"] for point in sweep]
        assert vout == pytest.approx(INVERTER_VOUT, rel=0, abs=VOLT_ABS)

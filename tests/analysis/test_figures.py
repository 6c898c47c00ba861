"""Tests for the figure data generators and text reports."""

import hashlib

import numpy as np
import pytest

from repro.analysis import build_case_study, figures, report


@pytest.fixture(scope="module")
def case():
    return build_case_study()


class TestFig2c:
    def test_all_grids_present(self):
        data = figures.fig2c_embodied_per_wafer()
        assert set(data) == {"us", "coal", "solar", "taiwan", "average"}

    def test_us_values(self):
        data = figures.fig2c_embodied_per_wafer()
        assert data["us"]["all_si"] == pytest.approx(837.0, rel=0.005)
        assert data["us"]["m3d"] == pytest.approx(1100.0, rel=0.005)

    def test_average_ratio(self):
        data = figures.fig2c_embodied_per_wafer()
        assert data["average"]["ratio"] == pytest.approx(1.31, abs=0.02)

    def test_custom_grid(self):
        data = figures.fig2c_embodied_per_wafer({"clean": 10.0})
        # With fab energy nearly free, only the GPA overhead remains:
        # the ratio drops well below the US-grid 1.31x.
        assert data["clean"]["ratio"] < 1.15

    def test_render(self):
        text = report.render_fig2c(figures.fig2c_embodied_per_wafer())
        assert "837" in text and "1100" in text and "1.31" in text


class TestFig2d:
    def test_deposition_anchor(self):
        data = figures.fig2d_euv_metal_steps()
        assert data["deposition"]["steps"] == 3
        assert data["deposition"]["total_kwh"] == pytest.approx(4.0)
        assert data["deposition"]["kwh_per_step"] == pytest.approx(4.0 / 3.0)

    def test_all_areas_present(self):
        data = figures.fig2d_euv_metal_steps()
        assert set(data) == {
            "lithography", "dry_etch", "wet_etch",
            "metallization", "deposition", "metrology",
        }

    def test_lithography_dominates(self):
        data = figures.fig2d_euv_metal_steps()
        litho = data["lithography"]["total_kwh"]
        for area, row in data.items():
            if area != "lithography":
                assert litho > row["total_kwh"]

    def test_render(self):
        text = report.render_fig2d(figures.fig2d_euv_metal_steps())
        assert "lithography" in text


class TestFig4:
    def test_sweep_grid(self):
        data = figures.fig4_energy_vs_clock()
        assert set(data) == {"hvt", "rvt", "lvt", "slvt"}
        for series in data.values():
            assert len(series) == 10
            assert series[0]["clock_mhz"] == 100.0
            assert series[-1]["clock_mhz"] == 1000.0

    def test_selected_point(self):
        """RVT at 500 MHz = 1.42 pJ (Table II / Fig. 4)."""
        data = figures.fig4_energy_vs_clock()
        point = data["rvt"][4]
        assert point["clock_mhz"] == 500.0
        assert point["met_timing"] == 1.0
        assert point["energy_per_cycle_pj"] == pytest.approx(1.42, abs=0.01)

    def test_hvt_fails_high_clocks(self):
        data = figures.fig4_energy_vs_clock()
        assert data["hvt"][-1]["met_timing"] == 0.0
        assert data["slvt"][-1]["met_timing"] == 1.0

    def test_slvt_energy_falls_then_rises(self):
        """Fig. 4 shape: leakage/cycle dominates at low f, sizing at
        high f, giving a U-shaped curve for leaky flavours."""
        data = figures.fig4_energy_vs_clock()
        slvt = [p["energy_per_cycle_pj"] for p in data["slvt"]]
        minimum = min(slvt)
        assert slvt[0] > minimum
        assert slvt[-1] > minimum

    def test_render(self):
        text = report.render_fig4(figures.fig4_energy_vs_clock())
        assert "RVT" in text and "500" in text


class TestFig5:
    def test_series_structure(self, case):
        data = figures.fig5_tc_and_tcdp(case)
        assert len(data["months"]) == 24
        for key in ("all_si", "m3d"):
            system = data[key]
            assert len(system["total_g"]) == 24
            # Embodied is constant; operational grows linearly.
            assert len(set(system["embodied_g"])) == 1
            assert system["operational_g"][-1] > system["operational_g"][0]

    def test_ratio_highlights(self, case):
        data = figures.fig5_tc_and_tcdp(case)
        highlights = data["highlighted_ratios"]
        assert highlights[1.0] > 1.0  # early: M3D worse
        assert highlights[24.0] < 1.0  # late: M3D better
        assert highlights[24.0] == pytest.approx(1 / 1.02, abs=0.005)

    def test_ratio_converges_toward_edp(self, case):
        data = figures.fig5_tc_and_tcdp(case, months=[1.0, 100.0, 1000.0])
        ratios = data["ratio_m3d_over_si"]
        limit = data["edp_limit"]
        assert abs(ratios[2] - limit) < abs(ratios[0] - limit)

    def test_crossover_in_range(self, case):
        data = figures.fig5_tc_and_tcdp(case)
        assert 10.0 < data["crossover_months"] < 24.0

    def test_render(self, case):
        text = report.render_fig5(figures.fig5_tc_and_tcdp(case))
        assert "tC" in text and "crossover" in text


class TestFig6a:
    def test_map_shape(self, case):
        data = figures.fig6a_tradeoff_map(case)
        assert data["ratio_map"].shape == (40, 40)

    def test_nominal_point_favors_m3d_at_24mo(self, case):
        data = figures.fig6a_tradeoff_map(case, lifetime_months=24.0)
        assert data["nominal_ratio"] < 1.0

    def test_nominal_point_favors_si_at_6mo(self, case):
        data = figures.fig6a_tradeoff_map(case, lifetime_months=6.0)
        assert data["nominal_ratio"] > 1.0

    def test_isoline_on_unit_contour(self, case):
        data = figures.fig6a_tradeoff_map(case)
        ys = data["op_scales"]
        xs = data["isoline_emb_scale"]
        from repro.analysis.figures import _operating_points
        from repro.core.isoline import TcdpTradeoffMap

        c, b = _operating_points(case, 24.0)
        tmap = TcdpTradeoffMap(c, b)
        for x, y in zip(xs, ys):
            if np.isfinite(x):
                assert tmap.ratio(float(x), float(y)) == pytest.approx(1.0)

    def test_render(self, case):
        text = report.render_fig6a(figures.fig6a_tradeoff_map(case))
        assert "+" in text and "." in text


#: sha256 over the Fig. 6b isolines and robust-region masks, captured
#: before the scenario model was made array-native.
FIG6B_DIGEST = (
    "b51506f3a8e2bc4e50c63206f6db2e1f1b63242d2d83176b59cf12d38de13a96"
)


def fig6b_digest(data) -> str:
    """Hash every isoline and mask: name, dtype, shape, then raw bytes."""
    h = hashlib.sha256()
    for group in ("isolines", "robust_regions"):
        for name, array in data[group].items():
            array = np.ascontiguousarray(array)
            h.update(f"{group}/{name}/{array.dtype.str}/{array.shape}".encode())
            h.update(array.tobytes())
    return h.hexdigest()


class TestFig6b:
    @pytest.mark.smoke
    def test_golden_digest(self, case):
        data = figures.fig6b_isoline_uncertainty(case)
        assert fig6b_digest(data) == FIG6B_DIGEST

    def test_isoline_family(self, case):
        data = figures.fig6b_isoline_uncertainty(case)
        assert len(data["isolines"]) == 7  # nominal + 6 perturbations

    def test_perturbations_move_isoline(self, case):
        data = figures.fig6b_isoline_uncertainty(case)
        nominal = data["isolines"]["nominal"]
        moved = 0
        for name, xs in data["isolines"].items():
            if name == "nominal":
                continue
            mask = np.isfinite(nominal) & np.isfinite(xs)
            if mask.any() and not np.allclose(xs[mask], nominal[mask]):
                moved += 1
        assert moved == 6

    def test_robust_regions_nonempty(self, case):
        data = figures.fig6b_isoline_uncertainty(case)
        regions = data["robust_regions"]
        assert regions["candidate_always"].any()
        assert regions["baseline_always"].any()
        assert regions["uncertain"].any()

    def test_render(self, case):
        text = report.render_fig6b(figures.fig6b_isoline_uncertainty(case))
        assert "nominal" in text and "yield" in text


class TestTable2Report:
    def test_render_table2(self, case):
        text = report.render_table2(case)
        assert "20,047,348" in text
        assert "837" in text
        assert "tCDP" in text

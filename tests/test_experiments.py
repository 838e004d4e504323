"""Tests for the experiment harness (configs, workloads, tables, figures)."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    FIGURE_WORKLOADS,
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_3,
    WORKLOAD_NAMES,
    all_workloads,
    build_mesh,
    figure_by_number,
    figure_throughput_latency,
    figure_variation_sweep,
    figure_vc_sweep,
    table_6_1,
    table_6_2,
    table_6_3,
    workload_flow_set,
)
from repro.experiments.report import (
    format_value,
    improvement_summary,
    render_comparison,
    render_series,
    render_table,
)


QUICK = ExperimentConfig.quick()


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.mesh_size == 8
        assert config.synthetic_demand == 25.0

    def test_quick_and_paper_scale(self):
        assert ExperimentConfig.quick().mesh_size == 4
        assert ExperimentConfig.paper_scale().simulation.measurement_cycles == 100_000
        assert ExperimentConfig.benchmark_scale().mesh_size == 8

    def test_with_vcs_and_variation(self):
        config = ExperimentConfig().with_vcs(4)
        assert config.num_vcs == 4
        assert config.simulation.num_vcs == 4
        varied = config.with_variation(0.25)
        assert varied.simulation.bandwidth_variation == 0.25

    def test_with_rates(self):
        assert ExperimentConfig().with_rates([1.0, 2.0]).offered_rates == (1.0, 2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(mesh_size=1),
        dict(synthetic_demand=0),
        dict(offered_rates=()),
        dict(offered_rates=(0.0,)),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ExperimentError):
            ExperimentConfig(**kwargs)


class TestWorkloads:
    def test_all_six_workloads_instantiate(self):
        workloads = all_workloads(QUICK)
        assert [name for name, _, _ in workloads] == list(WORKLOAD_NAMES)
        for _, mesh, flow_set in workloads:
            assert len(flow_set) > 0
            assert flow_set.max_node() < mesh.num_nodes

    def test_synthetic_demand_applied(self):
        mesh = build_mesh(QUICK)
        flows = workload_flow_set("transpose", mesh, QUICK)
        assert flows.max_demand() == QUICK.synthetic_demand

    def test_application_demands_preserved(self):
        mesh = build_mesh(QUICK)
        flows = workload_flow_set("h264", mesh, QUICK)
        assert flows.max_demand() == pytest.approx(120.4)

    def test_unknown_workload(self):
        with pytest.raises(ExperimentError):
            workload_flow_set("raytracer", build_mesh(QUICK), QUICK)


class TestReportRendering:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(3.0) == "3"
        assert format_value(3.14159, precision=2) == "3.14"
        assert format_value("abc") == "abc"

    def test_render_table_alignment_and_title(self):
        text = render_table(["a", "b"], [[1, 2.5], [10, None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        assert "-" in lines[-1]

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_series(self):
        text = render_series("rate", [1.0, 2.0], {"XY": [0.5, 0.9]})
        assert "rate" in text and "XY" in text

    def test_render_comparison(self):
        text = render_comparison({"x": 2.0}, {"x": 1.0}, title="cmp")
        assert "cmp" in text and "2" in text

    def test_improvement_summary(self):
        text = improvement_summary({"BSOR": 2.0, "XY": 1.0}, "BSOR")
        assert "100%" in text
        assert improvement_summary({"XY": 1.0}, "BSOR") == "BSOR: no data"


class TestTables:
    def test_table_6_3_quick(self):
        table = table_6_3(QUICK, workloads=("transpose", "perf-modeling"))
        assert set(table.values) == {"transpose", "perf-modeling"}
        row = table.row("transpose")
        assert set(row) == {"XY", "YX", "ROMM", "Valiant", "BSOR-MILP",
                            "BSOR-Dijkstra"}
        # BSOR never loses to plain DOR on MCL
        assert row["BSOR-MILP"] <= row["XY"]
        assert table.minimum("transpose") == min(v for v in row.values())
        assert "Table 6.3" in table.render()
        assert "ours/paper" in table.render_against_paper()

    def test_table_6_1_quick(self):
        table = table_6_1(QUICK, workloads=("transpose",))
        row = table.row("transpose")
        assert set(row) == set(table.columns)
        assert any(value is not None for value in row.values())

    def test_table_6_2_quick(self):
        table = table_6_2(QUICK, workloads=("shuffle",))
        assert table.minimum("shuffle") is not None

    def test_paper_reference_tables_are_complete(self):
        for reference in (PAPER_TABLE_6_1, PAPER_TABLE_6_3):
            assert set(reference) == set(WORKLOAD_NAMES)

    def test_milp_table_not_worse_than_dijkstra_table(self):
        """Per the paper, MILP MCLs are <= Dijkstra MCLs CDG-by-CDG."""
        milp = table_6_1(QUICK, workloads=("transpose",)).row("transpose")
        dijkstra = table_6_2(QUICK, workloads=("transpose",)).row("transpose")
        for column, milp_value in milp.items():
            if milp_value is not None and dijkstra.get(column) is not None:
                assert milp_value <= dijkstra[column] + 1e-9


class TestFigures:
    def test_figure_workload_mapping(self):
        assert FIGURE_WORKLOADS["6-1"] == "transpose"
        assert FIGURE_WORKLOADS["6-6"] == "transmitter"

    def test_figure_throughput_latency_quick(self):
        figure = figure_throughput_latency(
            "transpose", QUICK, algorithms=["XY", "yx"]
        )
        assert set(figure.throughput) == {"XY", "YX"}
        assert len(figure.throughput["XY"]) == len(QUICK.offered_rates)
        assert figure.saturation_throughputs()["XY"] > 0
        assert "throughput" in figure.render()
        assert figure.best_algorithm() in ("XY", "YX")

    def test_figure_by_number_rejects_unknown(self):
        with pytest.raises(ExperimentError):
            figure_by_number("6-99", QUICK)

    def test_vc_sweep_quick(self):
        result = figure_vc_sweep("transpose", QUICK, vc_counts=(1, 2),
                                 algorithms=["XY", "BSOR-Dijkstra"])
        assert set(result.saturation) == {"XY", "BSOR-Dijkstra"}
        assert 1 in result.saturation["XY"] and 2 in result.saturation["XY"]
        assert "Figure 6-7" in result.render()
        assert isinstance(result.improvement("XY", 1, 2), float)

    def test_variation_sweep_quick(self):
        figure = figure_variation_sweep("transpose", 0.25, QUICK,
                                        algorithms=["XY"])
        assert figure.name == "Figure 6-9"
        assert figure.claim
        assert figure.throughput["XY"]

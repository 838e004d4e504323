"""The route stage: :func:`repro.compare.matrix.route_cell`.

Every execution path routes through ``route_cell``, so these tests pin its
output and the paths that used to build routes by hand:

* a route-set golden over every registered router x {mesh4x4, torus4x4} x
  {transpose, decoder-pipeline} x {no faults, link:5-6} at the quick
  profile (typed refusals recorded as their error class) — regenerate
  deliberately with ``REPRO_UPDATE_GOLDEN=1``;
* the report heatmap reconstructing the row's own cell (study profile,
  scenario seed, row faults);
* ``python -m repro profile`` honouring ``explore_full_cdg_set``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.compare.matrix import parse_topology, pattern_flow_set, route_cell
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.faults import FaultSet, route_with_faults
from repro.routing.registry import available_routers
from repro.routing.romm import ROMMRouting
from repro.simulator.injection import make_injection_process
from repro.workloads.trace import RecordingInjection

GOLDEN = Path(__file__).parent / "golden" / "route_sets.json"
QUICK = ExperimentConfig.from_profile("quick")


def _route_set_digest(route_set, boundaries) -> str:
    """SHA-256 over the (flow, resource list) pairs and phase boundaries."""
    payload = {
        "routes": [[route.flow.name, [repr(resource)
                                      for resource in route.resources]]
                   for route in route_set.routes],
        "phase_boundaries": sorted((boundaries or {}).items()),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _route_grid(config=QUICK):
    digests = {}
    for router in available_routers():
        for topology_name in ("mesh4x4", "torus4x4"):
            topology = parse_topology(topology_name)
            for pattern in ("transpose", "decoder-pipeline"):
                for faults in ("none", "link:5-6"):
                    key = f"{router}|{topology_name}|{pattern}|{faults}"
                    try:
                        flow_set = pattern_flow_set(pattern, topology,
                                                    config)
                        cell = route_cell(router, topology, flow_set, config,
                                          FaultSet.from_spec(faults))
                        digests[key] = _route_set_digest(
                            cell.route_set, cell.phase_boundaries)
                    except ReproError as error:
                        digests[key] = type(error).__name__
    return digests


def test_route_sets_match_golden():
    digests = _route_grid()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True)
                          + "\n")
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN} missing; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )
    expected = json.loads(GOLDEN.read_text())
    changed = sorted(key for key in expected.keys() | digests.keys()
                     if expected.get(key) != digests.get(key))
    assert not changed, f"route sets changed for: {changed}"


def test_fault_free_cell_skips_the_fault_branch(monkeypatch):
    from repro.compare import matrix

    def no_reroute(*args, **kwargs):
        raise AssertionError("a fault-free cell must not reroute")

    monkeypatch.setattr(matrix, "route_with_faults", no_reroute)
    mesh = parse_topology("mesh4x4")
    flow_set = pattern_flow_set("transpose", mesh, QUICK)
    cell = route_cell("xy", mesh, flow_set, QUICK, FaultSet.from_spec("none"))
    assert (cell.router, cell.display_name) == ("dor", "XY")
    assert cell.topology is mesh
    assert (cell.phase_boundaries, cell.fault_schedule) == (None, None)


def test_profile_command_simulates_the_full_cdg_set_routes(monkeypatch):
    """``repro profile`` routes like ``figure``/``run`` do."""
    from repro.cli import main as repro_main
    from repro.cli import runner_commands
    from repro.simulator import simulation

    full = dataclasses.replace(QUICK, explore_full_cdg_set=True)
    monkeypatch.setattr(runner_commands, "experiment_config",
                        lambda args: full)
    simulated = []
    real_simulate = simulation.simulate_route_set

    def recording_simulate(topology, route_set, *args, **kwargs):
        simulated.append(route_set)
        return real_simulate(topology, route_set, *args, **kwargs)

    monkeypatch.setattr(simulation, "simulate_route_set", recording_simulate)
    assert repro_main(["profile", "--workload", "transpose",
                       "--algorithm", "bsor-dijkstra", "--rate", "0.5",
                       "--top", "1"]) == 0
    [route_set] = simulated
    assert route_set.max_channel_load() == 25.0


class TestReportHeatmapCell:
    """The heatmap draws the routes the study actually simulated."""

    STUDY = {
        "name": "seeded-romm",
        "profile": "quick",
        "workers": 1,
        "scenarios": [{
            "name": "pinned",
            "topologies": ["mesh4x4"],
            "patterns": ["transpose"],
            "routers": ["romm"],
            "rates": [1.0],
            "seed": 7,
            "faults": ["link:5-6"],
        }],
    }

    def test_heatmap_matches_the_simulated_cell(self, tmp_path):
        from repro.report import heatmaps_for, load_result_rows
        from repro.study.spec import Study

        result = Study.from_dict(self.STUDY).run(cache=False)
        [row] = result.results.rows
        assert row["faults"] == "link:5-6"
        path = tmp_path / "study.json"
        path.write_text(result.to_json())

        rows, metadata = load_result_rows(str(path))
        cycles = 128
        [heatmap], notes = heatmaps_for(
            rows, num_cycles=cycles, buckets=8,
            study=Study.from_dict(metadata["study"]))
        assert notes == []

        # the cell the study simulated: seed-7 ROMM rerouted around the
        # failed link, 4-flit quick-profile packets
        config = dataclasses.replace(QUICK, seed=7)
        mesh = parse_topology("mesh4x4")
        flow_set = pattern_flow_set("transpose", mesh, config)
        routed = route_with_faults(ROMMRouting(seed=7), mesh, flow_set,
                                   FaultSet.from_spec("link:5-6"))
        degraded = routed.topology
        used = {channel for route in routed.route_set
                for channel in route.channels}
        assert set(heatmap.channel_labels) == \
            {degraded.channel_label(channel) for channel in used}

        recorder = RecordingInjection(make_injection_process(
            flow_set, 1.0,
            variation_fraction=config.simulation.bandwidth_variation,
            mean_dwell_cycles=config.simulation.variation_dwell_cycles,
            seed=7,
        ))
        for cycle in range(cycles):
            recorder.counts_for_cycle(cycle)
        trace = recorder.trace(num_cycles=cycles)
        hops = [routed.route_set.route_by_name(name).hop_count
                for name in trace.flow_names]
        assert config.simulation.packet_size_flits == 4
        expected_flits = sum(count * 4 * hops[flow_index]
                             for row in trace.counts.values()
                             for flow_index, count in row)
        assert sum(map(sum, heatmap.matrix)) == expected_flits

    def test_bare_rows_keep_the_default_config(self):
        from repro.report import heatmaps_for
        from repro.study.resultset import ResultSet

        rows = ResultSet([{"topology": "mesh4x4", "pattern": "transpose",
                           "router": "dor", "offered_rate": 1.0}])
        [heatmap], notes = heatmaps_for(rows, num_cycles=64, buckets=4)
        assert notes == [] and heatmap.router == "dor"

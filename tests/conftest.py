"""Shared fixtures for the test suite.

Fixtures favour small topologies (3x3 and 4x4 meshes) so every test runs in
milliseconds; the 8x8 paper-scale configuration is exercised only by the
benchmark harness and a couple of explicitly-marked slow integration tests.
"""

from __future__ import annotations

import pytest


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running tests (full simulator runs, subprocess "
        "round-trips); excluded from the fast CI job via -m 'not slow'",
    )

from repro.cdg import TurnModel, turn_model_cdg
from repro.flowgraph import FlowGraph
from repro.topology import Mesh2D, Ring, Torus2D
from repro.traffic import FlowSet, transpose
from repro.simulator import SimulationConfig


@pytest.fixture(autouse=True)
def _private_default_cache(tmp_path_factory, monkeypatch):
    """Point the default cache location at a fresh temp directory.

    Paths that cache without naming a directory (a study's own cache
    policy, the report heatmap, CLI defaults) then never read or write the
    user's ``~/.cache/repro-bsor`` or a shared tier from the environment.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("default-cache")))
    monkeypatch.delenv("REPRO_SHARED_CACHE_DIR", raising=False)


@pytest.fixture
def mesh3() -> Mesh2D:
    """The paper's worked-example 3x3 mesh."""
    return Mesh2D(3)


@pytest.fixture
def mesh4() -> Mesh2D:
    """A 4x4 mesh: the smallest mesh the synthetic patterns all support."""
    return Mesh2D(4)


@pytest.fixture
def mesh8() -> Mesh2D:
    """The paper's 8x8 simulation mesh (used sparingly)."""
    return Mesh2D(8)


@pytest.fixture
def torus3() -> Torus2D:
    return Torus2D(3)


@pytest.fixture
def ring5() -> Ring:
    return Ring(5)


@pytest.fixture
def unidirectional_ring() -> Ring:
    return Ring(4, bidirectional=False)


@pytest.fixture
def small_flows(mesh3) -> FlowSet:
    """A hand-written three-flow set on the 3x3 mesh."""
    flows = FlowSet(name="small")
    flows.add_flow(0, 8, 10.0)   # A -> I (corner to corner)
    flows.add_flow(2, 6, 5.0)    # C -> G (the other diagonal)
    flows.add_flow(3, 5, 2.5)    # D -> F (straight across)
    return flows


@pytest.fixture
def transpose4(mesh4) -> FlowSet:
    return transpose(mesh4.num_nodes, demand=1.0)


@pytest.fixture
def west_first_cdg(mesh3):
    return turn_model_cdg(mesh3, TurnModel.WEST_FIRST)


@pytest.fixture
def flow_graph3(west_first_cdg, small_flows) -> FlowGraph:
    graph = FlowGraph(west_first_cdg)
    graph.add_flow_terminals(small_flows)
    return graph


@pytest.fixture
def tiny_sim_config() -> SimulationConfig:
    """A very small simulator configuration for fast unit tests."""
    return SimulationConfig(
        num_vcs=2, buffer_depth=4, packet_size_flits=4,
        warmup_cycles=50, measurement_cycles=300,
    )

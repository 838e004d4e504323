"""The comparison engine: (topology x pattern x router) through the runner.

:class:`CompareMatrix` is the first-class home of the paper's central,
comparative experiment — BSOR against the oblivious baselines across
topologies and traffic patterns.  For every cell of the cross-product it

1. builds the topology (``"mesh8x8"``-style specs, see
   :func:`parse_topology`) and the traffic pattern (synthetic patterns by
   name/alias, or one of the application workloads on a mesh);
2. computes the router's static route set through :func:`route_cell`,
   the one route stage every execution path shares (offline metrics —
   maximum channel load, average hops — come straight from the routes);
3. runs the adaptive :class:`~repro.compare.saturation.SaturationSearch`
   instead of a dense rate sweep.  All unfinished cells propose their next
   offered rate each round and the whole round is submitted to the
   :class:`~repro.runner.engine.ExperimentRunner` as one batch, so the
   search stays adaptive *and* parallel — and every simulated point lands
   in the result cache, making warm re-runs near-free.

The output is a list of :class:`CompareCell` rows that
:mod:`repro.compare.report` renders as markdown or JSON.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ExperimentError, ReproError, TrafficError
from ..experiments.config import ExperimentConfig
from ..experiments.workloads import APPLICATION_WORKLOADS, workload_flow_set
from ..faults import FaultSet, route_with_faults
from ..metrics.statistics import SimulationStatistics
from ..routing.base import RouteSet
from ..routing.bsor.framework import full_strategy_set, paper_strategies
from ..routing.deadlock import analyze_virtual_networks
from ..routing.registry import router_spec
from ..runner.engine import (
    ExperimentRunner,
    RunnerReport,
    SweepSpec,
    cache_for,
    runner_for,
)
from ..runner.fingerprint import ROUTE_SCHEMA_VERSION, route_cache_key
from ..simulator.config import SimulationConfig
from ..simulator.simulation import phase_boundaries_for
from ..topology.base import Topology
from ..topology.mesh import Mesh2D
from ..topology.ring import Ring
from ..topology.torus import Torus2D
from ..traffic.flow import FlowSet
from ..traffic.synthetic import synthetic_by_name
from ..workloads.registry import is_registered_workload, workload_spec
from ..workloads.registry import workload_flow_set as registry_workload_flow_set
from .saturation import SaturationCriteria, SaturationResult, SaturationSearch

_TOPOLOGY_SPEC = re.compile(r"^(mesh|torus|ring)(\d+)(?:x(\d+))?$")


def parse_topology(spec: str) -> Topology:
    """Build a topology from a compact spec string.

    ``mesh8x8`` / ``mesh8`` -> :class:`Mesh2D`, ``torus4x4`` ->
    :class:`Torus2D`, ``ring16`` -> :class:`Ring`.  Raises
    :class:`ExperimentError` with the accepted forms for anything else.
    """
    match = _TOPOLOGY_SPEC.match(spec.strip().lower())
    if not match:
        raise ExperimentError(
            f"unknown topology spec {spec!r}; expected forms: mesh8x8, "
            f"mesh8, torus4x4, ring16"
        )
    kind, first, second = match.group(1), int(match.group(2)), match.group(3)
    if kind == "ring":
        if second is not None:
            raise ExperimentError(
                f"ring topologies are one-dimensional: {spec!r}"
            )
        return Ring(first)
    height = int(second) if second is not None else first
    if kind == "mesh":
        return Mesh2D(first, height)
    return Torus2D(first, height)


def pattern_flow_set(pattern: str, topology: Topology,
                     config: ExperimentConfig) -> FlowSet:
    """Instantiate a traffic pattern or application workload on *topology*.

    Synthetic patterns (``transpose``, ``bit_complement``, aliases included)
    work on any power-of-two topology; the paper's application workloads
    (``h264``, ``perf-modeling``, ``transmitter``) are task graphs mapped
    onto a mesh; any other name resolves through the
    :mod:`repro.workloads` registry (``decoder-pipeline``,
    ``fft-butterfly``, ...) and maps onto meshes and tori alike — so BSOR's
    bandwidth allocation is configured from the application's own flow
    graph.
    """
    key = pattern.strip().lower()
    if key in APPLICATION_WORKLOADS:
        if not isinstance(topology, (Mesh2D, Torus2D)):
            raise ExperimentError(
                f"application workload {pattern!r} requires a mesh or torus "
                f"topology, got {type(topology).__name__}"
            )
        if isinstance(topology, Mesh2D):
            return workload_flow_set(key, topology, config)
    if is_registered_workload(key):
        return registry_workload_flow_set(
            key, topology,
            strategy=config.mapping_strategy,
            seed=config.seed,
        )
    try:
        return synthetic_by_name(pattern, topology.num_nodes,
                                 demand=config.synthetic_demand)
    except TrafficError as error:
        # neither a synthetic pattern nor a workload: surface both
        # vocabularies (workload_spec's error carries a did-you-mean hint
        # over the registry)
        try:
            workload_spec(key)
        except TrafficError as workload_error:
            raise ExperimentError(
                f"unknown pattern or workload {pattern!r}: {error}; "
                f"{workload_error}"
            ) from error
        raise  # pragma: no cover - workload_spec cannot succeed here


@dataclass(frozen=True)
class RoutedCell:
    """The routes of one (router, topology, flow set, faults) cell.

    Everything a :class:`~repro.runner.engine.SweepSpec` needs besides the
    simulation config and the rates, plus the router's registry names.
    """

    #: Canonical registry name (``"bsor-dijkstra"``).
    router: str
    #: The name result tables print (``"BSOR-Dijkstra"``).
    display_name: str
    #: The topology to simulate on: degraded by the static faults, if any.
    topology: Topology
    route_set: RouteSet
    phase_boundaries: Optional[Dict[str, int]]
    fault_schedule: Optional[object]

    def sweep_spec(self, simulation: SimulationConfig,
                   offered_rates: Sequence[float],
                   workload: str = "") -> SweepSpec:
        """A sweep of this cell's routes at *offered_rates*."""
        return SweepSpec(self.topology, self.route_set, simulation,
                         offered_rates, workload=workload,
                         phase_boundaries=self.phase_boundaries,
                         fault_schedule=self.fault_schedule)


def route_cell(router_name: str, topology: Topology, flow_set: FlowSet,
               config: ExperimentConfig, faults=None) -> RoutedCell:
    """The route stage: route *flow_set* with a registered router.

    Every execution path (studies, the comparison matrix, the figure and
    table harnesses, the CLI and the report heatmap) routes through here,
    so the same cell always gets the same routes.  It decides four
    things:

    * the router: a fresh instance from the registry spec, configured by
      the config's option bag (``seed``, ``hop_slack``,
      ``milp_time_limit``) — fresh because randomized routers (ROMM,
      Valiant, O1TURN) carry per-compute state;
    * BSOR's CDG strategy set: the full 12 + 3 set on a
      :class:`~repro.topology.mesh.Mesh2D` when
      ``config.explore_full_cdg_set`` is set (the ad hoc and turn-model
      strategies are mesh constructions), else the paper's five;
    * the fault branch: a non-empty *faults* (anything
      :meth:`~repro.faults.FaultSet.from_spec` accepts) reroutes through
      :func:`~repro.faults.route_with_faults`, which re-verifies deadlock
      freedom on the degraded topology; a fault-free cell computes its
      routes directly and skips that analysis;
    * the route cache: with the config's result cache on
      (:func:`~repro.runner.engine.cache_for`), the cell's
      :func:`~repro.runner.fingerprint.route_cache_key` names a route
      entry.  A verified entry is served without building a router; a
      miss routes, then stores the entry.  Routing failures are never
      stored, so they recompute and raise on every run.
    """
    spec = router_spec(router_name)
    accepted = spec.accepted_options()
    options = {name: value for name, value in (
        ("seed", config.seed), ("hop_slack", config.hop_slack),
        ("milp_time_limit", config.milp_time_limit),
    ) if name in accepted and value is not None}
    if "strategies" in accepted:
        # only BSOR explores CDGs, and the full set builds 16 of them
        options["strategies"] = (
            "full" if config.explore_full_cdg_set
            and isinstance(topology, Mesh2D) else "paper")
    fault_set = FaultSet.from_spec(faults)
    cache = cache_for(config)
    if cache is not None:
        key = route_cache_key(topology, flow_set, spec.name, options,
                              fault_set.label())
        cached = _cached_routes(cache.get_routes(key), topology, flow_set,
                                fault_set)
        if cached is not None:
            return RoutedCell(spec.name, spec.display_name, *cached)
    if "strategies" in options:
        options["strategies"] = (full_strategy_set(topology)
                                 if options["strategies"] == "full"
                                 else paper_strategies())
    router = spec.create(**options)
    if fault_set:
        routed = route_with_faults(router, topology, flow_set, fault_set)
        topology, route_set = routed.topology, routed.route_set
        boundaries, schedule = routed.phase_boundaries, routed.schedule
    else:
        route_set = router.compute_routes(topology, flow_set)
        boundaries, schedule = phase_boundaries_for(router, route_set), None
    if cache is not None:
        cache.put_routes(key, {"schema": ROUTE_SCHEMA_VERSION,
                               "route_set": route_set.to_payload(),
                               "phase_boundaries": boundaries or {}})
    return RoutedCell(router=spec.name, display_name=spec.display_name,
                      topology=topology, route_set=route_set,
                      phase_boundaries=boundaries or None,
                      fault_schedule=schedule or None)


def _cached_routes(entry: Optional[Dict], topology: Topology,
                   flow_set: FlowSet, fault_set: FaultSet):
    """(topology, route set, boundaries, schedule) of a route entry, or
    ``None`` when the entry is absent, stale or fails verification.

    An entry is trusted only when it rebuilds a complete route set whose
    every hop is a channel of the (degraded) topology and whose virtual
    networks are deadlock free — the same analysis
    :func:`~repro.faults.route_with_faults` runs.
    """
    if entry is None or entry.get("schema") != ROUTE_SCHEMA_VERSION:
        return None
    try:
        degraded = fault_set.degrade(topology)
        route_set = RouteSet.from_payload(degraded, flow_set,
                                          entry["route_set"])
        boundaries = dict(entry["phase_boundaries"])
        if not analyze_virtual_networks(route_set, boundaries).deadlock_free:
            return None
        schedule = fault_set.schedule(degraded)
    except (ReproError, LookupError, TypeError, ValueError, AttributeError):
        return None
    return degraded, route_set, boundaries or None, schedule or None


@dataclass
class CompareCell:
    """One row of the comparison matrix: one router on one workload.

    ``faults`` is the canonical label of the fault set the cell ran under
    (``"none"`` for the fault-free baseline) — the degradation report
    compares each faulty cell against its fault-free twin.
    """

    topology: str
    pattern: str
    router: str
    display_name: str
    max_channel_load: float
    average_hops: float
    saturation: SaturationResult
    low_load_latency: float
    p99_latency: float
    faults: str = "none"

    @property
    def saturation_rate(self) -> float:
        return self.saturation.saturation_rate

    @property
    def saturation_throughput(self) -> float:
        return self.saturation.throughput

    def to_row(self) -> Dict:
        """This cell as one flat, JSON-able result row.

        The row shape is shared by :meth:`CompareResult.result_set`, the
        JSON report and the study engine's saturate scenarios.
        """
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "router": self.router,
            "display_name": self.display_name,
            "faults": self.faults,
            "saturation_rate": self.saturation_rate,
            "saturated_within_range": self.saturation.saturated_within_range,
            "last_stable_rate": self.saturation.last_stable_rate,
            "saturation_throughput": self.saturation_throughput,
            "max_throughput": self.saturation.max_throughput,
            "low_load_latency": self.low_load_latency,
            "p99_latency": self.p99_latency,
            "max_channel_load": self.max_channel_load,
            "average_hops": self.average_hops,
            "invocations": self.saturation.invocations,
            "observations": [
                {
                    "offered_rate": observation.offered_rate,
                    "throughput": observation.throughput,
                    "average_latency": observation.average_latency,
                    "delivery_ratio": observation.delivery_ratio,
                    "saturated": observation.saturated,
                }
                for observation in self.saturation.observations
            ],
        }


@dataclass
class CompareResult:
    """All cells of one :meth:`CompareMatrix.run`, plus run bookkeeping."""

    cells: List[CompareCell]
    criteria: SaturationCriteria
    report: RunnerReport

    def cell(self, topology: str, pattern: str, router: str,
             faults: Optional[str] = None) -> CompareCell:
        from ..study.execute import validate_pattern

        router = router_spec(router).name
        pattern = validate_pattern(pattern)
        topology = topology.strip().lower()
        label = None if faults is None else FaultSet.from_spec(faults).label()
        for candidate in self.cells:
            if (candidate.topology, candidate.pattern, candidate.router) != \
                    (topology, pattern, router):
                continue
            if label is None or candidate.faults == label:
                return candidate
        raise ExperimentError(
            f"no comparison cell ({topology}, {pattern}, {router}"
            + (f", faults={label}" if label is not None else "") + ")"
        )

    def groups(self) -> List[Tuple[Tuple[str, str], List[CompareCell]]]:
        """Cells grouped by (topology, pattern), preserving run order."""
        grouped: Dict[Tuple[str, str], List[CompareCell]] = {}
        for cell in self.cells:
            grouped.setdefault((cell.topology, cell.pattern), []).append(cell)
        return list(grouped.items())

    def total_invocations(self) -> int:
        return sum(cell.saturation.invocations for cell in self.cells)

    def result_set(self):
        """The cells as a tagged :class:`~repro.study.resultset.ResultSet`.

        One row per cell (see :meth:`CompareCell.to_row`); this is the shape
        :mod:`repro.compare.report` renders and the study engine tags into
        its combined result set.
        """
        from ..study.resultset import ResultSet

        return ResultSet([cell.to_row() for cell in self.cells])


@dataclass
class _Cell:
    """Internal per-cell state while the matrix is running."""

    topology_name: str
    pattern: str
    routed: RoutedCell
    search: SaturationSearch
    faults: str = "none"
    #: offered rate -> simulated statistics, for the latency columns.
    statistics: Dict[float, SimulationStatistics] = field(default_factory=dict)


class CompareMatrix:
    """Fan a routing comparison across the parallel experiment runner.

    Parameters
    ----------
    config:
        Experiment scale (mesh demands, simulator cycle counts, seed,
        worker/cache settings).  Defaults to :class:`ExperimentConfig`.
    criteria:
        Saturation predicate and search range shared by every cell.
    runner:
        An existing :class:`ExperimentRunner`; built from *config* when
        omitted.
    observer:
        A :class:`~repro.progress.ProgressObserver` receiving the typed
        progress-event stream (attached to the runner — every round of
        one-point-per-cell batches emits through it).
    """

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 criteria: Optional[SaturationCriteria] = None,
                 runner: Optional[ExperimentRunner] = None,
                 observer=None) -> None:
        self.config = config or ExperimentConfig()
        self.criteria = criteria or SaturationCriteria()
        self.runner = runner or runner_for(self.config)
        if observer is not None:
            self.runner.observer = observer

    # ------------------------------------------------------------------
    def run(self, topologies: Sequence[str], patterns: Sequence[str],
            routers: Sequence[str],
            fault_sets: Optional[Sequence] = None) -> CompareResult:
        """Run the full (topology x pattern x router x fault set) comparison.

        *fault_sets* is an optional fourth axis of fault specifications
        (anything :meth:`~repro.faults.FaultSet.from_spec` accepts); each
        entry degrades the topology and reroutes every router through
        :func:`~repro.faults.route_with_faults` (re-verifying deadlock
        freedom on the degraded routes) before the saturation search.
        Omitted or ``None`` runs the classic fault-free comparison.
        """
        cells = self._build_cells(topologies, patterns, routers, fault_sets)
        report = RunnerReport(workers=self.runner.workers)
        while True:
            batch: Dict[str, Tuple[_Cell, float]] = {}
            for index, cell in enumerate(cells):
                rate = cell.search.next_rate()
                if rate is not None:
                    batch[f"cell-{index}@{rate:g}"] = (cell, rate)
            if not batch:
                break
            specs = {
                key: cell.routed.sweep_spec(self.config.simulation, [rate],
                                            workload=cell.pattern)
                for key, (cell, rate) in batch.items()
            }
            results = self.runner.sweep_many(specs)
            report.merge(self.runner.last_report)
            for key, (cell, rate) in batch.items():
                stats = results[key].statistics[0]
                cell.statistics[rate] = stats
                cell.search.observe(rate, stats.throughput,
                                    stats.average_latency,
                                    stats.delivery_ratio)
        return CompareResult(
            cells=[self._finish_cell(cell) for cell in cells],
            criteria=self.criteria,
            report=report,
        )

    # ------------------------------------------------------------------
    def _build_cells(self, topologies: Sequence[str], patterns: Sequence[str],
                     routers: Sequence[str],
                     fault_sets: Optional[Sequence] = None) -> List[_Cell]:
        if not topologies or not patterns or not routers:
            raise ExperimentError(
                "comparison needs at least one topology, pattern and router"
            )
        from ..study.execute import validate_pattern

        parsed_faults = [FaultSet.from_spec(entry)
                         for entry in (fault_sets
                                       if fault_sets else [None])]
        cells: List[_Cell] = []
        for topology_name in topologies:
            topology = parse_topology(topology_name)
            for pattern in patterns:
                flow_set = pattern_flow_set(pattern, topology, self.config)
                for router_name in routers:
                    for fault_set in parsed_faults:
                        cells.append(_Cell(
                            topology_name=topology_name.strip().lower(),
                            pattern=validate_pattern(pattern),
                            routed=route_cell(router_name, topology,
                                              flow_set, self.config,
                                              fault_set),
                            search=SaturationSearch(self.criteria),
                            faults=fault_set.label(),
                        ))
        return cells

    def _finish_cell(self, cell: _Cell) -> CompareCell:
        result = cell.search.result()
        low_rate = self.criteria.min_rate
        low_stats = cell.statistics.get(low_rate)
        stable_stats = cell.statistics.get(result.last_stable_rate, low_stats)
        return CompareCell(
            topology=cell.topology_name,
            pattern=cell.pattern,
            router=cell.routed.router,
            display_name=cell.routed.display_name,
            max_channel_load=cell.routed.route_set.max_channel_load(),
            average_hops=cell.routed.route_set.average_hop_count(),
            saturation=result,
            low_load_latency=(low_stats.average_latency if low_stats else 0.0),
            p99_latency=(stable_stats.latency_percentile(0.99)
                         if stable_stats else 0.0),
            faults=cell.faults,
        )


def compare_routers(topologies: Sequence[str], patterns: Sequence[str],
                    routers: Sequence[str],
                    config: Optional[ExperimentConfig] = None,
                    criteria: Optional[SaturationCriteria] = None,
                    runner: Optional[ExperimentRunner] = None,
                    fault_sets: Optional[Sequence] = None,
                    ) -> CompareResult:
    """One-call convenience wrapper around :class:`CompareMatrix`."""
    matrix = CompareMatrix(config=config, criteria=criteria, runner=runner)
    return matrix.run(topologies, patterns, routers, fault_sets=fault_sets)

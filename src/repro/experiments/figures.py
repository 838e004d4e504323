"""Reproduction of the paper's figures (Figures 6-1 through 6-10).

Every figure in the evaluation chapter is one of three shapes:

* **throughput & latency versus offered injection rate** for the six routing
  algorithms on one workload (Figures 6-1 to 6-6) —
  :func:`figure_throughput_latency`;
* the same sweep with **1, 2, 4 or 8 virtual channels** for the two BSOR
  variants (Figure 6-7) — :func:`figure_vc_sweep`;
* the same sweep under **run-time bandwidth variation** of 10 %, 25 % or
  50 % (Figures 6-8, 6-9, 6-10) — :func:`figure_variation_sweep`.

The harness returns structured :class:`FigureResult` objects whose
``render()`` prints the series as text tables (offered rate, one column per
algorithm), which is what the benchmark suite emits and EXPERIMENTS.md
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..exceptions import ExperimentError
from ..runner.engine import ExperimentRunner, runner_for
from .config import ExperimentConfig
from .report import improvement_summary, render_pivot
from .workloads import build_mesh, workload_flow_set

#: Figure number -> workload, for Figures 6-1 .. 6-6.
FIGURE_WORKLOADS: Dict[str, str] = {
    "6-1": "transpose",
    "6-2": "bit-complement",
    "6-3": "shuffle",
    "6-4": "h264",
    "6-5": "perf-modeling",
    "6-6": "transmitter",
}

#: The six algorithms of the paper's comparisons (Figures 6-1 .. 6-6 and
#: Table 6.3), by display name.
PAPER_ALGORITHMS = ("XY", "YX", "ROMM", "Valiant", "BSOR-MILP",
                    "BSOR-Dijkstra")

#: Qualitative claims of the paper attached to each figure, recorded so the
#: benchmark output and EXPERIMENTS.md can state what shape to expect.
PAPER_FIGURE_CLAIMS: Dict[str, str] = {
    "6-1": "BSOR reaches ~70% higher saturation throughput than the other "
           "algorithms on transpose at comparable latency.",
    "6-2": "XY, YX and BSOR-MILP coincide on bit-complement (same MCL); "
           "ROMM and Valiant saturate earlier and show instability.",
    "6-3": "BSOR-Dijkstra edges out BSOR-MILP at high injection rates on "
           "shuffle despite equal MCL (longer, better balanced routes).",
    "6-4": "BSOR lowers latency and congestion for H.264 at moderate loads; "
           "DOR catches up at very high injection rates.",
    "6-5": "BSOR-MILP achieves ~33% higher throughput than the other "
           "algorithms on performance modeling.",
    "6-6": "Same trends as the other applications for the 802.11a/g "
           "transmitter; Valiant suffers from loss of locality.",
    "6-7": "Going from 2 to 4 VCs improves throughput by ~40%; going from "
           "4 to 8 adds little.  BSOR stays ahead at every VC count.",
    "6-8": "With 10% bandwidth variation the ranking is unchanged; BSOR's "
           "headroom absorbs the variation.",
    "6-9": "With 25% variation BSOR still degrades the least at low loads.",
    "6-10": "With 50% variation BSOR retains its advantage on transpose, but "
            "minimal algorithms overtake it on H.264.",
}


@dataclass
class FigureResult:
    """Data behind one throughput/latency figure."""

    name: str
    workload: str
    offered_rates: List[float]
    throughput: Dict[str, List[float]]
    latency: Dict[str, List[float]]
    route_mcl: Dict[str, float]
    claim: str = ""

    def saturation_throughputs(self) -> Dict[str, float]:
        return {algorithm: max(values) if values else 0.0
                for algorithm, values in self.throughput.items()}

    def best_algorithm(self) -> str:
        saturation = self.saturation_throughputs()
        return max(saturation, key=saturation.get)

    def summary(self, subject: str = "BSOR-Dijkstra") -> str:
        return improvement_summary(
            self.saturation_throughputs(), subject, higher_is_better=True
        )

    def result_set(self):
        """The figure's points as a tagged
        :class:`~repro.study.resultset.ResultSet` (one row per simulated
        point), the shape :func:`repro.experiments.report.render_pivot`
        renders and the study engine aggregates."""
        from ..study.resultset import ResultSet

        rows = []
        for algorithm in self.throughput:
            throughputs = self.throughput.get(algorithm, [])
            latencies = self.latency.get(algorithm, [])
            for index, rate in enumerate(self.offered_rates):
                rows.append({
                    "figure": self.name,
                    "workload": self.workload,
                    "algorithm": algorithm,
                    "offered_rate": rate,
                    "throughput": throughputs[index]
                    if index < len(throughputs) else None,
                    "average_latency": latencies[index]
                    if index < len(latencies) else None,
                    "max_channel_load": self.route_mcl.get(algorithm),
                })
        return ResultSet(rows)

    def render(self) -> str:
        results = self.result_set()
        parts = [
            render_pivot(results, "offered_rate", "algorithm", "throughput",
                         x_label="offered rate",
                         title=f"{self.name} ({self.workload}) - throughput "
                               f"(packets/cycle)"),
            "",
            render_pivot(results, "offered_rate", "algorithm",
                         "average_latency",
                         x_label="offered rate",
                         title=f"{self.name} ({self.workload}) - average "
                               f"latency (cycles)"),
            "",
            "route MCLs: " + ", ".join(
                f"{algorithm}={mcl:g}" for algorithm, mcl in self.route_mcl.items()
            ),
        ]
        if self.claim:
            parts.append(f"paper claim: {self.claim}")
        return "\n".join(parts)


def figure_throughput_latency(workload: str,
                              config: Optional[ExperimentConfig] = None,
                              algorithms: Optional[Sequence[str]] = None,
                              figure_name: Optional[str] = None,
                              runner: Optional[ExperimentRunner] = None,
                              ) -> FigureResult:
    """Figures 6-1 .. 6-6: throughput & latency versus offered rate.

    *algorithms* are routing-registry names (default: the paper's six);
    every curve's points share one runner batch.
    """
    from ..compare.matrix import route_cell

    config = config or ExperimentConfig()
    runner = runner or runner_for(config)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    cells = [route_cell(name, mesh, flow_set, config)
             for name in (algorithms or PAPER_ALGORITHMS)]
    sweeps = runner.sweep_many({
        cell.display_name: cell.sweep_spec(config.simulation,
                                           config.offered_rates,
                                           workload=workload)
        for cell in cells
    })
    mcls = {name: result.route_set.max_channel_load()
            for name, result in sweeps.items()}
    if figure_name is None:
        matching = [fig for fig, wl in FIGURE_WORKLOADS.items() if wl == workload]
        figure_name = f"Figure {matching[0]}" if matching else f"Sweep ({workload})"
    claim_key = figure_name.replace("Figure ", "")
    return FigureResult(
        name=figure_name,
        workload=workload,
        offered_rates=list(config.offered_rates),
        throughput={name: result.curve.throughputs
                    for name, result in sweeps.items()},
        latency={name: result.curve.latencies for name, result in sweeps.items()},
        route_mcl=mcls,
        claim=PAPER_FIGURE_CLAIMS.get(claim_key, ""),
    )


def normalize_figure_key(figure: str) -> str:
    """Normalise a figure reference to "6-1" form.

    Accepts "Figure 6-1", "6-1", "1", and the dotted spelling the paper's
    text uses ("6.7", "Figure 6.7").
    """
    key = figure.replace("Figure", "").strip().replace(".", "-").strip("-")
    return key if "-" in key else f"6-{key}"


def figure_by_number(figure: str,
                     config: Optional[ExperimentConfig] = None,
                     runner: Optional[ExperimentRunner] = None) -> FigureResult:
    """Regenerate one of Figures 6-1 .. 6-6 by its number."""
    key = normalize_figure_key(figure)
    if key not in FIGURE_WORKLOADS:
        raise ExperimentError(
            f"unknown figure {figure!r}; known: {sorted(FIGURE_WORKLOADS)}"
        )
    return figure_throughput_latency(
        FIGURE_WORKLOADS[key], config, figure_name=f"Figure {key}",
        runner=runner,
    )


# ----------------------------------------------------------------------
# Figure 6-7: virtual channel sweep
# ----------------------------------------------------------------------
@dataclass
class VCSweepResult:
    """Saturation throughput versus number of virtual channels."""

    workload: str
    vc_counts: List[int]
    #: algorithm -> {vc count -> saturation throughput}
    saturation: Dict[str, Dict[int, float]]
    #: algorithm -> {vc count -> FigureResult-style curves}
    curves: Dict[str, Dict[int, List[float]]]
    offered_rates: List[float]

    def improvement(self, algorithm: str, from_vcs: int, to_vcs: int) -> float:
        """Relative throughput gain going from one VC count to another."""
        base = self.saturation[algorithm].get(from_vcs, 0.0)
        target = self.saturation[algorithm].get(to_vcs, 0.0)
        if base == 0:
            return 0.0
        return (target - base) / base

    def result_set(self):
        """One row per (algorithm, VC count) as a tagged
        :class:`~repro.study.resultset.ResultSet`."""
        from ..study.resultset import ResultSet

        rows = []
        for algorithm, by_vc in self.saturation.items():
            for vcs in self.vc_counts:
                rows.append({
                    "workload": self.workload,
                    "algorithm": algorithm,
                    "vcs": vcs,
                    "vc_label": f"{vcs} VCs",
                    "saturation_throughput": by_vc.get(vcs),
                })
        return ResultSet(rows)

    def render(self) -> str:
        from .report import render_pivot

        return render_pivot(
            self.result_set(), "algorithm", "vc_label",
            "saturation_throughput",
            title=f"Figure 6-7 ({self.workload}) - saturation throughput "
                  f"(packets/cycle) by VC count",
            precision=3,
        )


def figure_vc_sweep(workload: str,
                    config: Optional[ExperimentConfig] = None,
                    vc_counts: Sequence[int] = (1, 2, 4, 8),
                    algorithms: Optional[Sequence[str]] = None,
                    runner: Optional[ExperimentRunner] = None) -> VCSweepResult:
    """Figure 6-7: the effect of the number of virtual channels.

    Only the DOR baselines and the BSOR variants are simulated at one
    virtual channel (ROMM and Valiant need two for deadlock freedom), which
    mirrors the paper's methodology.  Every (VC count, algorithm, offered
    rate) point is independent, so the whole figure is submitted to the
    runner as one batch and fills the worker pool.
    """
    from ..compare.matrix import route_cell

    config = config or ExperimentConfig()
    runner = runner or runner_for(config)
    mesh = build_mesh(config)
    flow_set = workload_flow_set(workload, mesh, config)
    wanted = list(algorithms) if algorithms is not None else \
        ["XY", "BSOR-MILP", "BSOR-Dijkstra"]

    # Routes are oblivious and independent of the simulated VC count (the
    # default algorithms allocate VCs dynamically), so each algorithm's
    # route set is computed once and reused across every VC count.
    cells = [route_cell(name, mesh, flow_set, config) for name in wanted]
    specs = {}
    for vcs in vc_counts:
        simulation = config.simulation.with_vcs(vcs)
        for cell in cells:
            if vcs == 1 and cell.display_name in ("ROMM", "Valiant"):
                continue
            specs[f"{cell.display_name}@{vcs}"] = cell.sweep_spec(
                simulation, config.offered_rates, workload=workload)
    results = runner.sweep_many(specs)

    names = [cell.display_name for cell in cells]
    saturation: Dict[str, Dict[int, float]] = {name: {} for name in names}
    curves: Dict[str, Dict[int, List[float]]] = {name: {} for name in names}
    for key, result in results.items():
        name, _, vcs_text = key.rpartition("@")
        vcs = int(vcs_text)
        saturation[name][vcs] = result.curve.saturation_throughput()
        curves[name][vcs] = result.curve.throughputs
    return VCSweepResult(
        workload=workload,
        vc_counts=list(vc_counts),
        saturation=saturation,
        curves=curves,
        offered_rates=list(config.offered_rates),
    )


# ----------------------------------------------------------------------
# Figures 6-8 / 6-9 / 6-10: bandwidth variation sweeps
# ----------------------------------------------------------------------
def figure_variation_sweep(workload: str, variation_fraction: float,
                           config: Optional[ExperimentConfig] = None,
                           algorithms: Optional[Sequence[str]] = None,
                           runner: Optional[ExperimentRunner] = None,
                           ) -> FigureResult:
    """Figures 6-8/6-9/6-10: sweeps with run-time bandwidth variation.

    Routes are computed from the *nominal* demands (that is the whole point:
    the estimates are now wrong at run time) while the injection processes
    are modulated within ``±variation_fraction``.
    """
    config = config or ExperimentConfig()
    varied = config.with_variation(variation_fraction)
    figure = {0.10: "Figure 6-8", 0.25: "Figure 6-9", 0.50: "Figure 6-10"}.get(
        round(variation_fraction, 2),
        f"Variation sweep ({variation_fraction:.0%})",
    )
    result = figure_throughput_latency(
        workload, varied, algorithms=algorithms, figure_name=figure,
        runner=runner,
    )
    claim_key = figure.replace("Figure ", "")
    result.claim = PAPER_FIGURE_CLAIMS.get(claim_key, result.claim)
    return result

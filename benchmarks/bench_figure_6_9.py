"""Benchmark: regenerate Figure 6-9 (25% run-time bandwidth variation).

Paper claim: "Overall, the trends remain the same as in the 10% bandwidth
variation case.  BSOR algorithms show the least performance degradation in
presence of run-time bandwidth variations at low injection rates."
"""

from bench_utils import bench_config, emit, is_full_scale

from repro.experiments import figure_throughput_latency, figure_variation_sweep

#: The curves plotted: the DOR baselines against BSOR-Dijkstra.
ALGORITHMS = ["XY", "YX", "BSOR-Dijkstra"]


def test_figure_6_9_transpose_25pct(benchmark):
    config = bench_config()
    figure = benchmark.pedantic(
        figure_variation_sweep, args=("transpose", 0.25, config),
        kwargs=dict(algorithms=ALGORITHMS), rounds=1, iterations=1,
    )
    emit("Figure 6-9(a) transpose, 25% variation", figure.render())
    saturation = figure.saturation_throughputs()
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_9_degradation_is_bounded(benchmark):
    """BSOR's throughput under 25% variation stays close to its unvaried
    throughput (its low MCL leaves headroom to absorb the spikes)."""
    config = bench_config()

    def run():
        nominal = figure_throughput_latency("transpose", config,
                                            algorithms=["BSOR-Dijkstra"],
                                            figure_name="nominal")
        varied = figure_variation_sweep("transpose", 0.25, config,
                                        algorithms=["BSOR-Dijkstra"])
        return nominal, varied

    nominal, varied = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Figure 6-9 BSOR nominal vs 25% variation",
         nominal.render() + "\n\n" + varied.render())
    base = nominal.saturation_throughputs()["BSOR-Dijkstra"]
    under_variation = varied.saturation_throughputs()["BSOR-Dijkstra"]
    assert under_variation >= 0.75 * base

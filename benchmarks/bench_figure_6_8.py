"""Benchmark: regenerate Figure 6-8 (10% run-time bandwidth variation).

Paper claims: with 10% variation the transpose results barely move for any
algorithm, and on H.264 the headroom BSOR's low MCL leaves actually helps it
absorb the demand spikes.  Routes are computed from the *nominal* estimates;
only the run-time injection rates vary.
"""

from bench_utils import bench_config, emit, is_full_scale

from repro.experiments import figure_variation_sweep

#: The curves plotted: the DOR baselines against BSOR-Dijkstra.
ALGORITHMS = ["XY", "YX", "BSOR-Dijkstra"]


def test_figure_6_8_transpose_10pct(benchmark):
    config = bench_config()
    figure = benchmark.pedantic(
        figure_variation_sweep, args=("transpose", 0.10, config),
        kwargs=dict(algorithms=ALGORITHMS), rounds=1, iterations=1,
    )
    emit("Figure 6-8(a) transpose, 10% variation", figure.render())
    saturation = figure.saturation_throughputs()
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_8_h264_10pct(benchmark):
    config = bench_config()
    figure = benchmark.pedantic(
        figure_variation_sweep, args=("h264", 0.10, config),
        kwargs=dict(algorithms=ALGORITHMS), rounds=1, iterations=1,
    )
    emit("Figure 6-8(b) H.264, 10% variation", figure.render())
    saturation = figure.saturation_throughputs()
    if is_full_scale(config):
        assert saturation["BSOR-Dijkstra"] >= 0.85 * max(saturation["XY"],
                                                         saturation["YX"])
    else:
        assert saturation["BSOR-Dijkstra"] > 0

"""Benchmark: regenerate Figure 6-10 (50% run-time bandwidth variation).

Paper claims: 50% variation has the largest effect of the three levels.  On
transpose BSOR absorbs the variation and keeps its throughput advantage; on
H.264 the estimates are now so wrong that the minimal algorithms (XY, YX,
ROMM) overtake the non-minimal schemes — i.e. this is where the paper itself
says BSOR's effectiveness "can no longer be guaranteed".
"""

from bench_utils import bench_config, emit, is_full_scale

from repro.experiments import figure_variation_sweep

#: The curves plotted: the DOR baselines against BSOR-Dijkstra.
ALGORITHMS = ["XY", "YX", "BSOR-Dijkstra"]


def test_figure_6_10_transpose_50pct(benchmark):
    config = bench_config()
    figure = benchmark.pedantic(
        figure_variation_sweep, args=("transpose", 0.50, config),
        kwargs=dict(algorithms=ALGORITHMS), rounds=1, iterations=1,
    )
    emit("Figure 6-10(a) transpose, 50% variation", figure.render())
    saturation = figure.saturation_throughputs()
    if is_full_scale(config):
        # Transpose: BSOR's advantage survives even 50% mis-estimation.
        assert saturation["BSOR-Dijkstra"] >= saturation["XY"]
    else:
        assert saturation["BSOR-Dijkstra"] > 0


def test_figure_6_10_h264_50pct(benchmark):
    config = bench_config()
    figure = benchmark.pedantic(
        figure_variation_sweep, args=("h264", 0.50, config),
        kwargs=dict(algorithms=ALGORITHMS), rounds=1, iterations=1,
    )
    emit("Figure 6-10(b) H.264, 50% variation", figure.render())
    saturation = figure.saturation_throughputs()
    # The paper's point here is only that minimal routing becomes competitive
    # when estimates are badly wrong — BSOR need not win, but it must still
    # deliver a functional network (throughput within 2x of the best).
    assert saturation["BSOR-Dijkstra"] >= 0.5 * max(saturation.values())

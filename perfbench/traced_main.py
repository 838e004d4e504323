"""Run one ``python -m repro`` command in this process, optionally traced.

    python perfbench/traced_main.py --out OUT.json [--untraced] -- ARGS...

runs ``repro.cli.main(ARGS)`` exactly as ``python -m repro ARGS`` would, with
the layer boundaries of :mod:`tracer` wrapped in spans (unless
``--untraced``).  When the command returns it writes OUT.json: the spans,
the seconds ``import repro`` took, the wall clock of the command itself and
its exit code.  The benchmark runs its traced workloads through this script
with ``--workers 1`` so every layer call happens in this process.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--untraced", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    args = options.args[1:] if options.args[:1] == ["--"] else options.args

    started = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - started
    tracer.load_modules()
    recorder = tracer.Tracer()
    if not options.untraced:
        tracer.install(recorder)

    from repro.cli import main as repro_main

    started = time.perf_counter()
    code = repro_main(args)
    wall_s = time.perf_counter() - started
    sys.stdout.flush()
    recorder.dump(options.out, import_s=import_s, wall_s=wall_s, code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())

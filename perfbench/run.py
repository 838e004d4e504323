#!/usr/bin/env python3
"""The repository benchmark: BSOR end to end and layer by layer.

    python3 perfbench/run.py --workload fig67 --seed 0 --seconds 30 --trace 0

Run from the repository root.  Workloads (reasons in BENCHMARK.json, every
metric defined in perfbench/metrics.json):

``fig67``
    Figure 6.7 of the paper as a study (mesh8x8 transpose; dor, bsor-milp
    and bsor-dijkstra; 1, 2, 4 and 8 VCs; 3 rates; 36 points).  One pass is
    a ``python -m repro run`` against an empty cache, then the same command
    again against that cache.
``sim-sweep``
    A mesh8x8 study whose routers route in milliseconds (transpose,
    bit_complement, shuffle x dor, o1turn, valiant x 3 rates; 27 points),
    so the cold run is simulator, runner and cache writes.  Passes as above,
    with two warm reruns each.
``serve-mixed``
    One ``python -m repro serve --workers 1`` and a closed-loop client with
    one request in flight.  The pool holds 48 small quick-profile mesh4x4
    studies; a round sends each three times, in an order drawn from the
    seed, to a fresh server: 48 cold and 96 warm requests.

``--seed`` only changes the generated inputs: the study seed of the CLI
workloads' specs and the serve request order.  ``--trace 0`` runs the
program as users do, in fresh processes with tracing off, and prints the
end-to-end metrics.
``--trace 1`` runs the same workload through ``perfbench/traced_main.py``
with ``--workers 1``, so every layer call happens in one traced process,
and prints the per-layer metrics, including the tracing overhead against
an untraced run of the same phase.

Every result document is checked: the cold, warm and served documents of
one spec must be byte-identical, and at the default seed their SHA-256 must
match ``perfbench/digests.json`` (``--record-digests`` rewrites it).  A
non-zero exit, a failed job or a mismatch is a failed operation.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Everything the benchmark writes goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

DEFAULT_SEED = 0
#: Wall-clock budget of one benchmark run; children are killed after it.
BUDGET_S = 170.0
#: ``--workers`` of the end-to-end CLI runs (the cores of a 2-core host).
CLI_WORKERS = "2"
#: Fresh ``python -c "import repro"`` processes timed per run.
IMPORT_SAMPLES = 5
#: Server spawns timed per serve run: SERVE_SPAWNS - 1 that only start and
#: stop, then one per round of requests.
SERVE_SPAWNS = 5
#: How often each serve pool study is requested per round.
SERVE_REPEATS = 3
#: Warm reruns after each cold CLI run.  sim-sweep's warm run is short, so
#: it takes two samples a pass; fig67's is long enough to be one.
WARM_RERUNS = {"fig67": 1, "sim-sweep": 2}

SUMMARY = re.compile(r"(\d+) points, (\d+) simulated, (\d+) cached")


class Failure(Exception):
    """An operation whose outcome is missing or wrong."""


# -- workload inputs ----------------------------------------------------------
def fig67_study(seed: int) -> Dict:
    """examples/studies/figure_6_7.yaml with the study seed set."""
    return {
        "name": "figure-6-7",
        "description": (
            "Figure 6.7 of the paper: the effect of the number of virtual "
            "channels on saturation throughput for XY, BSOR-MILP and "
            "BSOR-Dijkstra on transpose."),
        "profile": "default",
        "scenarios": [{
            "name": "vc-sweep", "patterns": ["transpose"],
            "routers": ["dor", "bsor-milp", "bsor-dijkstra"],
            "vcs": [1, 2, 4, 8], "mode": "sweep", "seed": seed,
        }],
    }


def sim_sweep_study(seed: int) -> Dict:
    return {
        "name": "sim-sweep",
        "description": "Simulator-bound sweep: routers that route in ms.",
        "profile": "default",
        "scenarios": [{
            "name": "sim-sweep", "topologies": ["mesh8x8"],
            "patterns": ["transpose", "bit_complement", "shuffle"],
            "routers": ["dor", "o1turn", "valiant"],
            "mode": "sweep", "seed": seed,
        }],
    }


SERVE_PATTERNS = ("transpose", "bit_complement", "shuffle", "h264",
                  "decoder-pipeline", "fft-butterfly")
SERVE_ROUTERS = ("dor", "o1turn", "romm", "bsor-dijkstra")
SERVE_FAULTS = ("none", "link:5-6")
#: The quick profile's rates; pool study i sweeps the first 1 + i % 3.
SERVE_RATES = (0.5, 1.5, 3.0)


def serve_pool() -> Dict[str, Tuple[str, int]]:
    """Study name -> (submission body, points) of the 48 serve studies.

    The rate count varies so cold work sizes spread over several of the
    server's 50 ms event-stream poll steps instead of bunching at one.
    The studies keep the profile's seed: at some other study seeds ROMM
    refuses bit_complement on the link:5-6 mesh (a typed DeadlockError,
    its routes there are not deadlock free), and every request must be
    able to succeed.  The benchmark seed draws the request order.
    """
    pool = {}
    for index, (pattern, router, fault) in enumerate(itertools.product(
            SERVE_PATTERNS, SERVE_ROUTERS, SERVE_FAULTS)):
        name = f"{pattern}-{router}-{fault.replace(':', '')}"
        rates = SERVE_RATES[:1 + index % 3]
        pool[name] = (json.dumps({
            "name": name, "profile": "quick",
            "scenarios": [{
                "name": "cell", "topologies": ["mesh4x4"],
                "patterns": [pattern], "routers": [router],
                "faults": [fault], "rates": list(rates), "mode": "sweep",
            }],
        }), len(rates))
    return pool


def serve_plan(pool: Dict, rng: random.Random) -> List[str]:
    """One round of requests: every pool study SERVE_REPEATS times."""
    plan = sorted(pool) * SERVE_REPEATS
    rng.shuffle(plan)
    return plan


CLI_STUDIES = {"fig67": (fig67_study, 36), "sim-sweep": (sim_sweep_study, 27)}
WORKLOADS = ("fig67", "sim-sweep", "serve-mixed")
#: Workloads whose documents do not depend on the seed, so every run is
#: checked against the recorded digests, not only runs at DEFAULT_SEED.
SEED_FREE_DOCUMENTS = ("serve-mixed",)


# -- statistics ---------------------------------------------------------------
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def upper_quartile(values: List[float]) -> float:
    """Third quartile of *values*, interpolated between samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def tail_mean(values: List[float], share: float = 0.1) -> float:
    """Mean of the slowest *share* of *values* (at least one value)."""
    slowest = sorted(values, reverse=True)[:max(1, round(share * len(values)))]
    return mean(slowest)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- the benchmark run --------------------------------------------------------
class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 record_digests: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.record = record_digests
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.serial = itertools.count(1)
        self.children: List[subprocess.Popen] = []
        self.documents: Dict[str, str] = {}

    # -- bookkeeping --------------------------------------------------------
    def operation(self, label: str, function, *args):
        """Run one operation; a :class:`Failure` is counted, not raised."""
        self.attempted += 1
        try:
            return function(*args)
        except Failure as error:
            self.failed += 1
            self.notes.append(f"FAILED {label}: {error}")
            return None

    def remaining(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)

    def fresh(self, stem: str) -> Path:
        return self.dir / f"{stem}-{next(self.serial)}"

    def env(self, cache: Path) -> Dict[str, str]:
        """The child environment: a private cache, no inherited REPRO_*."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + path if path else "")
        return env

    def check_document(self, key: str, text: str) -> None:
        """Equal to every earlier document of *key*, and to the record."""
        first = self.documents.setdefault(key, text)
        if text != first:
            raise Failure(f"{key}: result document differs from the first "
                          f"one of this run")
        if self.seed != DEFAULT_SEED and \
                self.workload not in SEED_FREE_DOCUMENTS:
            return
        recorded = self.digests.setdefault(self.workload, {})
        if self.record:
            recorded[key] = digest(text)
        elif recorded.get(key) != digest(text):
            raise Failure(f"{key}: SHA-256 {digest(text)[:16]} is not the "
                          f"recorded {str(recorded.get(key))[:16]}")

    # -- processes ----------------------------------------------------------
    def spawn(self, command: List[str], cache: Path, stdout
              ) -> subprocess.Popen:
        """Start a child; its stderr goes to a file of the run directory."""
        with open(self.fresh("stderr"), "wb") as stderr:
            # a session of its own, so kill() also reaches pool workers
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env(cache),
                stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                start_new_session=True)
        process.stderr_path = Path(stderr.name)
        self.children.append(process)
        return process

    def wait(self, process: subprocess.Popen) -> Tuple[int, float]:
        """(exit code, peak RSS MB) of a child, killed at the deadline.

        The peak RSS is what the kernel reports when reaping the child:
        the largest of the process and of the workers it reaped.
        """
        timer = threading.Timer(self.remaining(), kill, (process,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        return process.returncode, usage.ru_maxrss / 1024.0

    def run(self, command: List[str], cache: Path
            ) -> Tuple[float, str, str, float]:
        """(wall s, stdout, stderr, peak RSS MB) of one finished command."""
        path = self.fresh("stdout")
        with open(path, "wb") as out:
            started = time.perf_counter()
            process = self.spawn(command, cache, out)
            code, rss = self.wait(process)
            wall = time.perf_counter() - started
        stdout = path.read_text()
        stderr = process.stderr_path.read_text()
        if code != 0:
            tail = stderr.strip().splitlines()[-3:]
            raise Failure(f"exit code {code}: {' | '.join(tail)}")
        return wall, stdout, stderr, rss

    def stop_children(self) -> None:
        for process in self.children:
            if process.returncode is None and process.poll() is None:
                kill(process)
                process.wait()

    # -- CLI workloads ------------------------------------------------------
    def import_probe(self) -> float:
        return self.run([sys.executable, "-c", "import repro"],
                        self.fresh("cache"))[0]

    def cli_phase(self, command: List[str], cache: Path, expect: Tuple,
                  key: str) -> Tuple[float, float, str]:
        """Run one CLI phase; check its document and its summary line."""
        wall, stdout, stderr, rss = self.run(command, cache)
        found = SUMMARY.search(stderr)
        if found is None:
            raise Failure("no runner summary line on stderr")
        counts = (int(found.group(2)), int(found.group(3)))
        if (int(found.group(1)),) + counts != expect:
            raise Failure(f"summary says {found.group(0)!r}, expected "
                          f"{expect[0]} points, {expect[1]} simulated, "
                          f"{expect[2]} cached")
        self.check_document(key, stdout.rstrip("\n"))
        return wall, rss, stderr

    def repro_args(self, spec: Path, cache: Path, workers: str) -> List[str]:
        return ["run", str(spec), "--workers", workers, "--cache-dir",
                str(cache), "--format", "json", "--progress", "quiet"]

    def cli_workload(self, trace: bool) -> Dict[str, float]:
        make_study, points = CLI_STUDIES[self.workload]
        study = make_study(self.seed)
        self.study_name = study["name"]
        spec = self.dir / f"{self.workload}.json"
        spec.write_text(json.dumps(study, indent=2))
        cold_expect = (points, points, 0)
        warm_expect = (points, 0, points)
        if trace:
            return self.cli_traced(spec, cold_expect, warm_expect)

        started = time.monotonic()
        self.operation("warm-up import", self.import_probe)
        setup = [wall for wall in (
            self.operation("import", self.import_probe)
            for _ in range(IMPORT_SAMPLES)) if wall is not None]
        cold: List[float] = []
        warm: List[float] = []
        rss: List[float] = []
        phases = [("cold", cold_expect, cold)] + [
            ("warm", warm_expect, warm)] * WARM_RERUNS[self.workload]
        last = time.monotonic()
        while not cold or (time.monotonic() - started < self.seconds
                           and self.remaining() > 2 * (time.monotonic()
                                                       - last)):
            last = time.monotonic()
            cache = self.fresh("cache")
            command = [sys.executable, "-m", "repro"] + self.repro_args(
                spec, cache, CLI_WORKERS)
            for label, expect, walls in phases:
                outcome = self.operation(f"{label} run", self.cli_phase,
                                         command, cache, expect,
                                         self.study_name)
                if outcome is None:
                    break
                walls.append(outcome[0])
                rss.append(outcome[1])
            if self.failed:
                break
        self.notes.append(f"{len(setup)} import probes, {len(cold)} cold "
                          f"and {len(warm)} warm runs, "
                          f"--workers {CLI_WORKERS}")
        for label, walls in (("import", setup), ("cold", cold),
                             ("warm", warm)):
            self.notes.append(f"{label} s: " + " ".join(
                f"{wall:.3f}" for wall in walls))
        return {
            "setup_s": median(setup),
            "cold_s": median(cold),
            "warm_s": median(warm),
            "tail_s": upper_quartile(cold),
            "peak_rss_mb": max(rss or [0.0]),
        }

    def traced_phase(self, spec: Path, cache: Path, expect: Tuple,
                     untraced: bool = False) -> Dict:
        out = self.fresh("spans").with_suffix(".json")
        command = [sys.executable, str(HERE / "traced_main.py"),
                   "--out", str(out)] + (["--untraced"] if untraced else [])
        command += ["--"] + self.repro_args(spec, cache, "1")
        _, _, stderr = self.cli_phase(command, cache, expect,
                                      self.study_name)
        record = json.loads(out.read_text())
        if not untraced:
            # the CLI's own summary line against the traced cache lookups
            cached = int(SUMMARY.search(stderr).group(3))
            hits = tracer.summarize(record["spans"])["runner.cache_hits"]
            if hits != cached:
                raise Failure(f"CLI reports {cached} cached points, the "
                              f"trace saw {hits} cache hits")
        return record

    def cli_traced(self, spec: Path, cold_expect: Tuple,
                   warm_expect: Tuple) -> Dict[str, float]:
        cache = self.fresh("cache")
        phases = [self.operation(label, self.traced_phase, spec, cache,
                                 expect, untraced)
                  for label, expect, untraced in (
                      ("traced cold run", cold_expect, False),
                      ("traced warm run", warm_expect, False),
                      ("untraced warm run", warm_expect, True))]
        if None in phases:
            return layer_metrics([], [])
        cold, warm, baseline = phases
        metrics = layer_metrics([cold["spans"], warm["spans"]],
                                [record["import_s"] for record in phases])
        metrics["routing.warm_route_computations"] = tracer.SpanIndex(
            warm["spans"]).count("routing.compute")
        overhead = warm["wall_s"] - baseline["wall_s"]
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / baseline["wall_s"]
        self.notes.append(f"traced: cold {cold['wall_s']:.3f} s, warm "
                          f"{warm['wall_s']:.3f} s; untraced warm "
                          f"{baseline['wall_s']:.3f} s; --workers 1")
        return metrics

    # -- serve workload -----------------------------------------------------
    def request(self, port: int, method: str, path: str,
                body: Optional[bytes] = None) -> bytes:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=self.remaining())
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = response.read()
        except OSError as error:
            raise Failure(f"{method} {path}: {error}")
        finally:
            connection.close()
        if response.status >= 300:
            raise Failure(f"{method} {path}: HTTP {response.status} "
                          f"{data[:200]!r}")
        return data

    def start_server(self, command: List[str], cache: Path
                     ) -> Tuple[subprocess.Popen, int, float]:
        """Spawn a server; (process, port, seconds until /healthz)."""
        started = time.perf_counter()
        process = self.spawn(command, cache, subprocess.PIPE)
        timer = threading.Timer(self.remaining(), kill, (process,))
        timer.start()
        line = process.stdout.readline().decode()
        timer.cancel()
        found = re.search(r"serving on http://[^:]+:(\d+)", line)
        if found is None:
            kill(process)
            self.wait(process)
            raise Failure(f"server did not announce a port: {line!r}")
        # drain stdout so the server can never block on a full pipe
        threading.Thread(target=process.stdout.read, daemon=True).start()
        port = int(found.group(1))
        self.request(port, "GET", "/healthz")
        return process, port, time.perf_counter() - started

    def stop_server(self, process: subprocess.Popen, port: int) -> None:
        self.request(port, "POST", "/shutdown", b"")
        code, _ = self.wait(process)
        if code != 0:
            raise Failure(f"server exited with code {code}")

    def serve_command(self, cache: Path, trace_out: Optional[Path] = None,
                      untraced: bool = False) -> List[str]:
        args = ["serve", "--workers", "1", "--port", "0", "--cache-dir",
                str(cache), "--progress", "quiet"]
        if trace_out is None:
            return [sys.executable, "-m", "repro"] + args
        return [sys.executable, str(HERE / "traced_main.py"), "--out",
                str(trace_out)] + (["--untraced"] if untraced else []) + \
            ["--"] + args

    def serve_request(self, port: int, name: str, study: Tuple[str, int],
                      cold: bool) -> Dict:
        """One submission, timed from the POST until the result is read.

        The event stream is followed until the server closes it, not
        polled, so the latency is not quantized by a client poll interval.
        """
        body, points = study
        started = time.perf_counter()
        job = json.loads(self.request(port, "POST", "/studies",
                                      body.encode()))["job"]
        submitted = time.perf_counter()
        self.request(port, "GET", f"/studies/{job}/events")
        document = self.request(port, "GET", f"/studies/{job}/result")
        finished = time.perf_counter()
        summary = json.loads(self.request(port, "GET", f"/studies/{job}"))
        if summary["state"] != "done":
            raise Failure(f"{name}: job {job} is {summary['state']}")
        counts = summary["event_counts"]
        simulated = counts.get("point_finished", 0)
        cached = counts.get("cache_hit", 0)
        if (simulated, cached) != ((points, 0) if cold else (0, points)):
            raise Failure(f"{name}: {simulated} simulated, {cached} cached "
                          f"on a {'cold' if cold else 'warm'} request")
        self.check_document(name, document.decode())
        latency = finished - started
        submit = submitted - started
        queue = summary["started_at"] - summary["created_at"]
        execute = summary["finished_at"] - summary["started_at"]
        return {"latency": latency, "cold": cold, "submit": submit,
                "queue": queue, "exec": execute,
                "stream": latency - submit - queue - execute,
                "events": sum(counts.values())}

    def serve_loop(self, command: List[str], cache: Path,
                   plan: List[str]) -> Optional[Dict]:
        """Start a server, send the request *plan*, read its memory, stop it."""
        started = self.operation("server start", self.start_server,
                                 command, cache)
        if started is None:
            return None
        process, port, setup = started
        rss_ready = proc_status(process.pid)["VmRSS"]
        pool = serve_pool()
        seen = set()
        requests = []
        began = time.perf_counter()
        for name in plan:
            outcome = self.operation(f"request {name}", self.serve_request,
                                     port, name, pool[name], name not in seen)
            seen.add(name)
            if outcome is not None:
                requests.append(outcome)
        wall = time.perf_counter() - began
        status = proc_status(process.pid)
        self.operation("server stop", self.stop_server, process, port)
        return {"setup": setup, "requests": requests, "wall": wall,
                "peak_rss": status["VmHWM"],
                "rss_growth": status["VmRSS"] - rss_ready}

    def serve_workload(self, trace: bool) -> Dict[str, float]:
        """Rounds of the request plan, each on a fresh server and cache,
        until ``--seconds`` have passed; server spawns count as measuring.
        """
        if trace:
            return self.serve_traced()
        started = time.monotonic()
        setup = []
        for _ in range(SERVE_SPAWNS - 1):
            cache = self.fresh("cache")
            server = self.operation("server start", self.start_server,
                                    self.serve_command(cache), cache)
            if server is not None:
                setup.append(server[2])
                self.operation("server stop", self.stop_server,
                               server[0], server[1])
        pool = serve_pool()
        rng = random.Random(self.seed)
        loops = []
        last = time.monotonic()
        while not loops or (time.monotonic() - started < self.seconds
                            and self.remaining() > 2 * (time.monotonic()
                                                        - last)):
            last = time.monotonic()
            cache = self.fresh("cache")
            loop = self.serve_loop(self.serve_command(cache), cache,
                                   serve_plan(pool, rng))
            if loop is None:
                break
            loops.append(loop)
            if self.failed:
                break
        if not loops:
            return dict.fromkeys(E2E, 0.0)
        setup += [loop["setup"] for loop in loops]
        requests = [request for loop in loops for request in loop["requests"]]
        every = [request["latency"] for request in requests]
        cold = [request["latency"] for request in requests if request["cold"]]
        warm = [request["latency"] for request in requests
                if not request["cold"]]
        self.notes.append(
            f"{len(setup)} server spawns; {len(loops)} rounds, closed loop, "
            f"1 client, {len(every)} requests ({len(cold)} cold, "
            f"{len(warm)} warm)")
        if len(every) > 1:
            p90 = statistics.quantiles(every, n=10)[-1]
            wall = sum(loop["wall"] for loop in loops)
            self.notes.append(
                f"serve_p50_ms {median(every) * 1e3:.2f} ms, serve_p90_ms "
                f"{p90 * 1e3:.2f} ms, serve_warm_p50_ms "
                f"{median(warm) * 1e3:.2f} ms, serve_req_per_s "
                f"{len(every) / wall:.3f} 1/s")
        return {
            "setup_s": median(setup),
            "cold_s": mean(cold),
            "warm_s": mean(warm),
            "tail_s": tail_mean(every),
            "peak_rss_mb": max(loop["peak_rss"] for loop in loops),
        }

    def serve_traced(self) -> Dict[str, float]:
        records = []
        loops = []
        for untraced in (False, True):
            cache = self.fresh("cache")
            out = self.fresh("spans").with_suffix(".json")
            loops.append(self.serve_loop(
                self.serve_command(cache, out, untraced), cache,
                serve_plan(serve_pool(), random.Random(self.seed))))
            records.append(json.loads(out.read_text())
                           if out.exists() else None)
        traced, baseline = loops
        if None in loops or None in records:
            return layer_metrics([], [])
        spans = records[0]["spans"]
        metrics = layer_metrics([spans],
                                [record["import_s"] for record in records])
        index = tracer.SpanIndex(spans)
        # one request in flight: the k-th run_study span is the k-th request
        runs = sorted(index.spans("study.run"), key=lambda span: span[3])
        warm_runs = {span[0] for span, request in zip(runs,
                                                       traced["requests"])
                     if not request["cold"]}
        metrics["routing.warm_route_computations"] = index.count_within(
            "routing.compute", warm_runs)
        requests = baseline["requests"]
        metrics.update({
            "serve.submit_ms": median([r["submit"] for r in requests]) * 1e3,
            "serve.queue_wait_ms": median([r["queue"] for r in requests])
            * 1e3,
            "serve.exec_ms": median([r["exec"] for r in requests]) * 1e3,
            "serve.stream_ms": median([r["stream"] for r in requests]) * 1e3,
            "serve.rss_growth_mb": baseline["rss_growth"],
            "progress.events_per_job": statistics.mean(
                [r["events"] for r in requests]),
        })
        overhead = traced["wall"] - baseline["wall"]
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / baseline["wall"]
        self.notes.append(
            f"traced loop {traced['wall']:.3f} s, untraced loop "
            f"{baseline['wall']:.3f} s, {len(requests)} requests each; "
            f"serve.* and progress.* from the untraced loop")
        return metrics


def kill(process: subprocess.Popen) -> None:
    """SIGKILL a child's whole session (the child and its workers)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def proc_status(pid: int) -> Dict[str, float]:
    """VmRSS and VmHWM of a live process, in MB."""
    values = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        if key in ("VmRSS", "VmHWM"):
            values[key] = int(rest.split()[0]) / 1024.0
    return values


# -- metric tables ----------------------------------------------------------
DEFINITIONS = json.loads((HERE / "metrics.json").read_text())
E2E = list(DEFINITIONS["end_to_end"])
PER_LAYER = list(DEFINITIONS["per_layer"])


def layer_metrics(span_lists: List[List[list]],
                  import_s: List[float]) -> Dict[str, float]:
    """Every per-layer metric; the span-derived ones from *span_lists*."""
    metrics: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    metrics.update(tracer.summarize(tracer.merge(span_lists)))
    metrics["import.repro_s"] = median(import_s)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measuring time; whole passes repeat "
                             "until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's result digests as the "
                             f"reference (needs --seed {DEFAULT_SEED})")
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if options.record_digests and options.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")

    # a terminated run still stops its children (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench = Bench(options.workload, options.seed, options.seconds,
                  options.record_digests)
    trace = bool(options.trace)
    try:
        if options.workload == "serve-mixed":
            metrics = bench.serve_workload(trace)
        else:
            metrics = bench.cli_workload(trace)
    finally:
        bench.stop_children()
    names = PER_LAYER if trace else E2E
    kinds = DEFINITIONS["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"benchmark bug: metrics {sorted(metrics)} do not "
                         f"match metrics.json {sorted(names)}")
    if bench.record and not bench.failed:
        (HERE / "digests.json").write_text(
            json.dumps(bench.digests, indent=2, sort_keys=True) + "\n")

    print(f"# {options.workload} seed {options.seed} trace {options.trace}")
    for note in bench.notes:
        print(f"# {note}")
    for name in names:
        print(f"{name:34s} {metrics[name]:>16.6f} {kinds[name]['unit']}")
    share = metrics.get("routing.milp_limit_share", 0)
    if share > 0.5:
        print(f"# WARNING: a MILP solve used {share:.0%} of its time limit; "
              f"near the limit the chosen routes can change",
              file=sys.stderr)
    shutil.rmtree(bench.dir, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": kinds[name]["unit"]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

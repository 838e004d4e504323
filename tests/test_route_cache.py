"""The route-set cache behind :func:`repro.compare.matrix.route_cell`.

A route entry is keyed on everything that determines a route set
(:func:`~repro.runner.fingerprint.route_cache_key`) and verified before it
is trusted.  These tests pin:

* warm cells equal the route-set golden, and warm bundled studies route
  nothing and give byte-identical documents;
* which inputs move the key and which do not, across processes too;
* tampered entries read as misses (recompute, overwrite), never crashes;
* ``use_cache=False`` writes nothing, and a shared tier reads through.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compare.matrix import parse_topology, pattern_flow_set, route_cell
from repro.experiments.config import ExperimentConfig
from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import RouterSpec
from repro.runner.cache import ROUTES_DIR, ResultCache
from repro.study import Study
from repro.topology import Mesh2D
from repro.traffic import FlowSet

from test_route_stage import GOLDEN, QUICK, _route_grid

STUDIES = sorted((Path(__file__).parent.parent / "examples" / "studies")
                 .glob("*.yaml"))


def _config(cache_dir, base=QUICK, **updates) -> ExperimentConfig:
    updates = {"use_cache": True, **updates}
    return dataclasses.replace(base, cache_dir=str(cache_dir), **updates)


def _entries(cache_dir) -> set:
    return {path.name for path in (Path(cache_dir) / ROUTES_DIR).glob("*.json")}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.fixture
def compute_calls(monkeypatch):
    """Counts ``compute_routes`` calls on every routing algorithm."""
    calls = []
    for cls in set(_subclasses(RoutingAlgorithm)):
        if "compute_routes" not in vars(cls):
            continue
        original = vars(cls)["compute_routes"]

        def counting(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "compute_routes", counting)
    return calls


def _square_flows() -> FlowSet:
    """Four flows on a 2x2 mesh whose clockwise routes close a cycle."""
    return FlowSet.from_tuples([(0, 3, 1.0), (1, 2, 1.0), (3, 0, 1.0),
                                (2, 1, 1.0)])


def _route(cache_dir, router="dor", topology=None, flow_set=None,
           faults=None, base=QUICK, **updates):
    topology = topology or Mesh2D(2)
    flow_set = flow_set or _square_flows()
    return route_cell(router, topology, flow_set,
                      _config(cache_dir, base, **updates), faults)


# ----------------------------------------------------------------------
# (a) warm cells equal the golden; (b) warm studies route nothing
# ----------------------------------------------------------------------
def test_warm_cells_match_the_route_set_golden(tmp_path, monkeypatch):
    config = _config(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    assert _route_grid(config) == expected  # cold, filling the cache
    refused = sum(1 for value in expected.values() if len(value) != 64)
    assert len(_entries(tmp_path)) == len(expected) - refused
    built = []
    create = RouterSpec.create
    monkeypatch.setattr(RouterSpec, "create", lambda spec, **options: (
        built.append(spec.name), create(spec, **options))[1])
    assert _route_grid(config) == expected  # warm, served from it
    # only refused cells (typed errors are never cached) build a router
    assert len(built) == refused


@pytest.mark.parametrize("path", STUDIES, ids=lambda path: path.stem)
def test_warm_bundled_study_routes_nothing(path, tmp_path, compute_calls):
    study = Study.from_file(path)
    options = dict(profile="quick", workers=1, cache=True,
                   cache_dir=str(tmp_path))
    cold = study.run(**options).to_json()
    assert compute_calls, "the cold run should have routed"
    compute_calls.clear()
    warm = study.run(**options).to_json()
    assert compute_calls == []
    assert warm == cold


# ----------------------------------------------------------------------
# (c) what the key covers; (e) across PYTHONHASHSEED
# ----------------------------------------------------------------------
_MESH = parse_topology("mesh4x4")
_TRANSPOSE = pattern_flow_set("transpose", _MESH, QUICK)


@pytest.mark.parametrize("router, changed", [
    ("romm", dict(seed=QUICK.seed + 1)),
    ("bsor-dijkstra", dict(hop_slack=QUICK.hop_slack + 1)),
    ("bsor-milp", dict(milp_time_limit=QUICK.milp_time_limit + 1)),
    ("bsor-dijkstra",
     dict(explore_full_cdg_set=not QUICK.explore_full_cdg_set)),
    ("dor", dict(faults="link:5-6")),
    ("dor", dict(flow_set=FlowSet.from_tuples(
        [(flow.source, flow.destination,
          flow.demand * (2 if index == 0 else 1))
         for index, flow in enumerate(_TRANSPOSE)]))),
    ("dor", dict(topology=Mesh2D(8, 2))),
])
def test_key_changes_with(router, changed, tmp_path):
    small = FlowSet.from_tuples([(0, 5, 1.0), (6, 9, 2.0), (15, 3, 1.0)])
    base = dict(topology=_MESH, flow_set=small if router == "bsor-milp"
                else _TRANSPOSE)
    _route(tmp_path, router, **base)
    before = _entries(tmp_path)
    _route(tmp_path, router, **{**base, **changed})
    assert len(_entries(tmp_path) - before) == 1


def test_key_ignores_simulation_and_execution_inputs(tmp_path,
                                                     compute_calls):
    _route(tmp_path / "a", "bsor-dijkstra", _MESH, _TRANSPOSE)
    compute_calls.clear()
    for base in (dataclasses.replace(QUICK, workers=3),
                 QUICK.with_vcs(QUICK.num_vcs * 2),
                 QUICK.with_backend("reference")):
        _route(tmp_path / "a", "bsor-dijkstra", _MESH, _TRANSPOSE, base=base)
    assert compute_calls == []
    _route(tmp_path / "b", "bsor-dijkstra", _MESH, _TRANSPOSE)
    assert _entries(tmp_path / "a") == _entries(tmp_path / "b")


def test_key_is_stable_across_hash_seeds(tmp_path):
    script = (
        "import sys\n"
        "from repro.compare.matrix import parse_topology, "
        "pattern_flow_set, route_cell\n"
        "from repro.experiments.config import ExperimentConfig\n"
        "import dataclasses\n"
        "config = dataclasses.replace(ExperimentConfig.from_profile("
        "'quick'), use_cache=True, cache_dir=sys.argv[1])\n"
        "mesh = parse_topology('mesh4x4')\n"
        "flows = pattern_flow_set('transpose', mesh, config)\n"
        "route_cell('bsor-dijkstra', mesh, flows, config, 'link:5-6')\n"
    )
    names = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, ["src", os.environ.get("PYTHONPATH")])))
        directory = tmp_path / hash_seed
        subprocess.run([sys.executable, "-c", script, str(directory)],
                       check=True, env=env,
                       cwd=Path(__file__).parent.parent)
        names.append(_entries(directory))
    assert len(names[0]) == 1
    assert names[0] == names[1]


# ----------------------------------------------------------------------
# (d) tampered entries are misses
# ----------------------------------------------------------------------
def _off_topology(entry):
    entry["route_set"]["routes"][0][1][0] = [0, 3, -1]  # no 0 -> 3 link


def _missing_flow(entry):
    del entry["route_set"]["routes"][-1]


def _cyclic(entry):
    # clockwise around the square: every route turns into the next one
    entry["route_set"]["routes"] = [
        ["f1", [[0, 1, -1], [1, 3, -1]]],
        ["f2", [[1, 3, -1], [3, 2, -1]]],
        ["f3", [[3, 2, -1], [2, 0, -1]]],
        ["f4", [[2, 0, -1], [0, 1, -1]]],
    ]


@pytest.mark.parametrize("tamper", [_off_topology, _missing_flow, _cyclic,
                                    "truncate"])
def test_tampered_entry_is_a_miss(tamper, tmp_path, compute_calls):
    cold = _route(tmp_path)
    (name,) = _entries(tmp_path)
    path = tmp_path / ROUTES_DIR / name
    original = path.read_text()
    if tamper == "truncate":
        path.write_text(original[: len(original) // 2])
    else:
        entry = json.loads(original)
        tamper(entry)
        path.write_text(json.dumps(entry))
    compute_calls.clear()
    warm = _route(tmp_path)
    assert compute_calls, "a bad entry must be recomputed"
    assert warm.route_set.to_payload() == cold.route_set.to_payload()
    assert path.read_text() == original  # and overwritten


def test_stale_schema_entry_is_a_miss(tmp_path, compute_calls):
    _route(tmp_path)
    (name,) = _entries(tmp_path)
    path = tmp_path / ROUTES_DIR / name
    entry = json.loads(path.read_text())
    entry["schema"] = -1
    path.write_text(json.dumps(entry))
    compute_calls.clear()
    _route(tmp_path)
    assert compute_calls


def test_routing_failures_are_never_cached(tmp_path):
    # a dead router's links cut node 1 off: typed error, every run
    from repro.exceptions import UnroutableFlowError

    for _ in range(2):
        with pytest.raises(UnroutableFlowError):
            _route(tmp_path, faults="router:1")
    assert _entries(tmp_path) == set()


# ----------------------------------------------------------------------
# (f) cache off writes nothing; (g) shared tier reads through
# ----------------------------------------------------------------------
def test_disabled_cache_writes_no_route_entries(tmp_path):
    _route(tmp_path, use_cache=False)
    Study.from_file(STUDIES[-1]).run(profile="quick", workers=1, cache=False,
                                     cache_dir=str(tmp_path))
    assert not (tmp_path / ROUTES_DIR).exists()


def test_shared_tier_reads_through(tmp_path, compute_calls):
    shared = tmp_path / "shared"
    _route(tmp_path / "host-a", shared_cache_dir=str(shared))
    assert _entries(shared) == _entries(tmp_path / "host-a")
    compute_calls.clear()
    warm = _route(tmp_path / "host-b", shared_cache_dir=str(shared))
    assert compute_calls == []
    assert warm.route_set.is_complete()
    # written back into the reading host's own tier
    assert _entries(tmp_path / "host-b") == _entries(shared)


def test_route_entries_stay_out_of_simulation_counters(tmp_path):
    _route(tmp_path)
    cache = ResultCache(tmp_path)
    assert len(cache) == 0 and list(cache.keys()) == []
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["route_entries"] == 1
    assert cache.get_routes(_entries(tmp_path).pop()[:-5]) is not None
    assert (cache.hits, cache.misses) == (0, 0)
    assert cache.clear() == 1
    assert _entries(tmp_path) == set()

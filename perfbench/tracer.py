"""In-memory span recorder for the benchmark's traced runs.

The benchmark measures the program from outside: nothing in ``src/repro``
knows about it.  A traced run imports the package, wraps the public
functions listed in :func:`install` and records one span per call:
``[id, parent, name, start, end, attrs]``.  ``parent`` is the span that was
open on the same thread when the call began (0 for none), so nesting and
self time can be rebuilt afterwards.  Spans stay in a list until
:meth:`Tracer.dump` writes them out when the traced process ends.

:func:`summarize` turns a span list into the per-layer numbers.  A layer's
*self* time is its spans' durations minus the durations of their child
spans; *total* time counts the whole span.  Where one traced function calls
another of the same span name (``require_acyclic`` calls ``find_cycle``,
``Study.from_file`` calls ``Study.from_dict``), only the outermost span is
counted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Modules imported before patching, so that lazily imported layers are
#: wrapped too.  Traced and untraced runs import the same set.
MODULES = (
    "repro",
    "repro.cli",
    "repro.compare.matrix",
    "repro.faults",
    "repro.flowgraph.flowgraph",
    "repro.cdg.cdg",
    "repro.routing.registry",
    "repro.routing.bsor.framework",
    "repro.routing.bsor.dijkstra",
    "repro.routing.bsor.milp",
    "repro.runner.cache",
    "repro.runner.engine",
    "repro.runner.fingerprint",
    "repro.serve.service",
    "repro.simulator.simulation",
    "repro.study.execute",
    "repro.study.spec",
)


def load_modules() -> None:
    for name in MODULES:
        importlib.import_module(name)


class Tracer:
    """Records a span around every call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """*function* in a span; *annotate(args, result)* adds attrs."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, result) if annotate else None
                tracer.spans.append([span_id, parent, name, start, end, attrs])

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as stream:
            json.dump({"spans": self.spans, **extra}, stream)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name of the package bound to *original*.

    ``from .x import f`` copies the function into the importing module, so
    patching only the defining module would miss those call sites.
    """
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# -- annotations (read after the call returns) ------------------------------
def _milp_attrs(args, _result) -> Dict:
    selector = args[0]
    solution = selector.last_solution
    return {
        "status": None if solution is None else solution.status,
        "gap": None if solution is None else solution.mip_gap,
        "limit": selector.time_limit,
    }


def _cache_get_attrs(_args, result) -> Dict:
    return {"hit": result is not None}


def _simulate_attrs(_args, result) -> Dict:
    return {"points": 1, "cycles": 0 if result is None else result.cycles}


def _simulate_batch_attrs(_args, result) -> Dict:
    results = result or []
    return {"points": len(results),
            "cycles": sum(stats.cycles for stats in results)}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the already imported package."""
    from repro.cdg.cdg import ChannelDependenceGraph
    from repro.compare import matrix
    from repro import faults
    from repro.flowgraph.flowgraph import FlowGraph
    from repro.routing.base import RoutingAlgorithm
    from repro.routing.bsor.dijkstra import DijkstraSelector
    from repro.routing.bsor.framework import CDGStrategy
    from repro.routing.bsor.milp import MILPSelector
    from repro.runner import fingerprint
    from repro.runner.cache import ResultCache
    from repro.runner.engine import ExperimentRunner
    from repro.serve import service
    from repro.simulator import simulation
    from repro.study import execute
    from repro.study.execute import StudyResult
    from repro.study.spec import Study

    functions = [
        ("traffic.flow_set", matrix.pattern_flow_set, None),
        ("faults.reroute", faults.route_with_faults, None),
        ("runner.fingerprint", fingerprint.simulation_cache_key, None),
        ("simulator.simulate", simulation.simulate_route_set,
         _simulate_attrs),
        ("simulator.simulate", simulation.simulate_route_set_batch,
         _simulate_batch_attrs),
        ("study.run", execute.run_study, None),
        ("study.parse", service.study_from_text, None),
    ]
    for name, function, annotate in functions:
        _replace_everywhere(function, tracer.wrap(name, function, annotate))

    methods = [
        ("cdg.build", CDGStrategy, "build", None),
        ("cdg.acyclic", ChannelDependenceGraph, "require_acyclic", None),
        ("cdg.acyclic", ChannelDependenceGraph, "find_cycle", None),
        ("flowgraph.init", FlowGraph, "__init__", None),
        ("flowgraph.terminals", FlowGraph, "add_flow_terminals", None),
        ("routing.dijkstra", DijkstraSelector, "select_routes", None),
        ("routing.milp", MILPSelector, "select_routes", _milp_attrs),
        ("runner.cache_get", ResultCache, "get", _cache_get_attrs),
        ("runner.cache_put", ResultCache, "put", None),
        ("runner.sweep", ExperimentRunner, "sweep_many", None),
        ("study.serialize", StudyResult, "to_json", None),
    ]
    methods += [("routing.compute", cls, "compute_routes", None)
                for cls in _subclasses(RoutingAlgorithm)
                if "compute_routes" in vars(cls)]
    for name, cls, attribute, annotate in methods:
        setattr(cls, attribute,
                tracer.wrap(name, vars(cls)[attribute], annotate))

    for attribute in ("from_file", "from_dict"):
        function = vars(Study)[attribute].__func__
        setattr(Study, attribute,
                classmethod(tracer.wrap("study.parse", function)))


# -- aggregation --------------------------------------------------------------
class SpanIndex:
    """Counts, totals and self times of one list of spans."""

    def __init__(self, spans: List[list]) -> None:
        self.by_id = by_id = {span[0]: span for span in spans}
        self.child_time: Dict[int, float] = defaultdict(float)
        self.outermost: Dict[str, List[list]] = defaultdict(list)
        self.all: Dict[str, List[list]] = defaultdict(list)
        for span in spans:
            span_id, parent, name, start, end, _ = span
            self.all[name].append(span)
            if parent:
                self.child_time[parent] += end - start
            ancestor = by_id.get(parent)
            nested = False
            while ancestor is not None:
                if ancestor[2] == name:
                    nested = True
                    break
                ancestor = by_id.get(ancestor[1])
            if not nested:
                self.outermost[name].append(span)

    def count(self, name: str) -> int:
        return len(self.outermost[name])

    def total(self, name: str) -> float:
        return sum(end - start for _, _, _, start, end, _ in
                   self.outermost[name])

    def self_time(self, name: str) -> float:
        return sum(end - start - self.child_time[span_id]
                   for span_id, _, _, start, end, _ in self.all[name])

    def attrs(self, name: str) -> List[Dict]:
        return [span[5] or {} for span in self.outermost[name]]

    def spans(self, name: str) -> List[list]:
        return self.outermost[name]

    def count_within(self, name: str, roots: set) -> int:
        """Outermost *name* spans that descend from a span id in *roots*."""
        count = 0
        for span in self.outermost[name]:
            ancestor = self.by_id.get(span[1])
            while ancestor is not None and ancestor[0] not in roots:
                ancestor = self.by_id.get(ancestor[1])
            count += ancestor is not None
        return count


def merge(span_lists: List[List[list]]) -> List[list]:
    """Spans of several traced processes as one list with unique ids."""
    merged = []
    for number, spans in enumerate(span_lists):
        offset = number * 10 ** 9
        merged.extend([span_id + offset, parent + offset if parent else 0,
                       name, start, end, attrs]
                      for span_id, parent, name, start, end, attrs in spans)
    return merged


def summarize(spans: List[list]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run."""
    index = SpanIndex(spans)
    gets = index.attrs("runner.cache_get")
    hits = sum(1 for attrs in gets if attrs.get("hit"))
    milp = index.spans("routing.milp")
    milp_attrs = index.attrs("routing.milp")
    simulate = index.attrs("simulator.simulate")
    cycles = sum(attrs.get("cycles", 0) for attrs in simulate)
    simulate_s = index.total("simulator.simulate")
    limit_shares = [(span[4] - span[3]) / span[5]["limit"]
                    for span in milp if span[5] and span[5].get("limit")]
    return {
        "traffic.flow_sets": index.count("traffic.flow_set"),
        "traffic.flow_set_s": index.total("traffic.flow_set"),
        "cdg.builds": index.count("cdg.build"),
        "cdg.build_s": index.self_time("cdg.build"),
        "cdg.acyclic_checks": index.count("cdg.acyclic"),
        "cdg.acyclic_s": index.total("cdg.acyclic"),
        "flowgraph.builds": index.count("flowgraph.init"),
        "flowgraph.build_s": (index.total("flowgraph.init")
                              + index.total("flowgraph.terminals")),
        "routing.route_computations": index.count("routing.compute"),
        "routing.compute_s": index.total("routing.compute"),
        "routing.dijkstra_selects": index.count("routing.dijkstra"),
        "routing.dijkstra_s": index.total("routing.dijkstra"),
        "routing.milp_solves": len(milp),
        "routing.milp_s": index.total("routing.milp"),
        "routing.milp_nonoptimal": sum(
            1 for attrs in milp_attrs if attrs.get("status") != 0),
        "routing.milp_max_gap": max(
            [attrs.get("gap") or 0.0 for attrs in milp_attrs] or [0.0]),
        "routing.milp_limit_share": max(limit_shares or [0.0]),
        "faults.reroutes": index.count("faults.reroute"),
        "faults.reroute_s": index.total("faults.reroute"),
        "runner.fingerprint_keys": index.count("runner.fingerprint"),
        "runner.fingerprint_s": index.total("runner.fingerprint"),
        "runner.cache_gets": len(gets),
        "runner.cache_hits": hits,
        "runner.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "runner.cache_get_s": index.total("runner.cache_get"),
        "runner.cache_puts": index.count("runner.cache_put"),
        "runner.cache_put_s": index.total("runner.cache_put"),
        "runner.sweep_self_s": index.self_time("runner.sweep"),
        "simulator.points": sum(attrs.get("points", 0) for attrs in simulate),
        "simulator.s": simulate_s,
        "simulator.cycles": cycles,
        "simulator.us_per_cycle": simulate_s / cycles * 1e6 if cycles else 0.0,
        "study.parse_s": index.total("study.parse"),
        "study.run_self_s": index.self_time("study.run"),
        "study.serialize_s": index.total("study.serialize"),
    }

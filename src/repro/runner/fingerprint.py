"""Stable content fingerprints for simulation inputs.

The result cache is content addressed: a simulation point is identified by a
SHA-256 digest of everything that determines its outcome — the topology's
channel inventory, the flow set (names, endpoints, demands), the route of
every flow (including static VC allocation), every field of the
:class:`~repro.simulator.config.SimulationConfig`, the phase boundaries and
the offered injection rate.  Two processes that build the same experiment
from the same configuration therefore compute the same key, which is what
lets worker processes share one cache directory and lets a re-plotted figure
skip simulation entirely.

The fingerprint is computed over a canonical JSON rendering (sorted keys,
no whitespace) of plain lists / dicts / scalars, never over ``hash()`` or
``repr()`` of live objects, so it is independent of ``PYTHONHASHSEED``,
process identity and dict insertion order.  Flow and channel *order* is
preserved, not sorted away: both are genuine simulation inputs (flows share
one injection RNG stream drawn in flow-set order; channel ids and
arbitration order follow the topology's channel enumeration), so two
experiments that differ only in ordering must not collide on one key.

Route sets are content addressed the same way: :func:`route_cache_key`
digests what determines a route set (topology, flow set, router, its
options and the fault set), so the route stage can serve a warm cell
without building a router.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from ..routing.base import RouteSet
from ..simulator.batchsim import LANE_VARIABLE_FIELDS
from ..simulator.config import SimulationConfig
from ..topology.base import Topology
from ..traffic.flow import FlowSet

#: Bump when the simulator's semantics change in a way that invalidates
#: previously cached statistics.
CACHE_SCHEMA_VERSION = 1

#: Bump when a router's output for the same inputs changes, which
#: invalidates previously cached route sets (:func:`route_cache_key`).
ROUTE_SCHEMA_VERSION = 1


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def topology_fingerprint(topology: Topology) -> Dict[str, object]:
    """Canonical description of a topology: type, nodes and channels.

    Channels keep the topology's enumeration order — it determines the
    simulator's channel ids and arbitration scan order.
    """
    return {
        "type": type(topology).__name__,
        "nodes": sorted(topology.nodes),
        "channels": [(channel.src, channel.dst)
                     for channel in topology.channels],
    }


def flow_set_fingerprint(route_set: RouteSet) -> list:
    """Canonical description of the flows a route set carries.

    Flow order is preserved — flows draw from one shared injection RNG
    stream in flow-set order, so reordered flow sets are different
    simulations.
    """
    return _flows(route_set.flow_set)


def _flows(flow_set: FlowSet) -> list:
    return [
        (flow.name, flow.source, flow.destination, float(flow.demand))
        for flow in flow_set
    ]


def route_set_fingerprint(route_set: RouteSet) -> Dict[str, object]:
    """Canonical description of every route (channels + static VCs)."""
    payload = route_set.to_payload()
    return {"algorithm": payload["algorithm"],
            "routes": dict(payload["routes"])}


def config_fingerprint(config: SimulationConfig) -> Dict[str, object]:
    """Every *outcome-determining* field of the configuration, by name.

    The ``backend`` field is deliberately excluded: every registered
    simulator backend is bit-identical (enforced by the differential suite),
    so the kernel choice cannot change the statistics — excluding it keeps
    cache keys backend-invariant, meaning results simulated on one backend
    are warm-cache hits for every other (and entries cached before the
    backend field existed stay valid).
    """
    payload = dataclasses.asdict(config)
    payload.pop("backend", None)
    return payload


def simulation_cache_key(topology: Topology, route_set: RouteSet,
                         config: SimulationConfig, offered_rate: float,
                         phase_boundaries: Optional[Dict[str, int]] = None,
                         fault_schedule=None,
                         ) -> str:
    """The content-addressed key of one simulation point.

    Any change to any input — a different channel, demand, route hop, VC
    count, warm-up length, seed, variation fraction or offered rate —
    produces a different key, so stale cache entries can never be returned
    for a modified experiment.

    Faults are covered from both sides: *static* faults (failed before
    cycle 0) reach the simulator as a degraded topology, whose channel
    inventory already distinguishes the key; a *scheduled*
    :class:`~repro.faults.FailureSchedule` of mid-run failures is an extra
    simulation input, so its canonical payload joins the key whenever it is
    non-empty.  An empty or ``None`` schedule adds nothing — keys from
    before the fault model existed stay valid, and a degraded run can never
    collide with its fault-free twin in either direction.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": flow_set_fingerprint(route_set),
        "routes": route_set_fingerprint(route_set),
        "config": config_fingerprint(config),
        "offered_rate": float(offered_rate),
        "phase_boundaries": sorted((phase_boundaries or {}).items()),
    }
    if fault_schedule:
        payload["faults"] = fault_schedule.to_payload()
    return _digest(payload)


def batch_group_key(topology: Topology, route_set: RouteSet,
                    config: SimulationConfig,
                    phase_boundaries: Optional[Dict[str, int]] = None,
                    fault_schedule=None,
                    ) -> str:
    """The content-addressed key of one *batchable* family of points.

    Two simulation points may share a lane of one vectorized
    :class:`~repro.simulator.batchsim.BatchSimulator` batch exactly when
    they agree on everything except the offered rate and the lane-variable
    configuration fields (:data:`~repro.simulator.batchsim.LANE_VARIABLE_FIELDS`:
    VC count, seed, backend and the bandwidth-variation knobs).  This key
    digests precisely that shared remainder — the same canonical payload as
    :func:`simulation_cache_key` minus ``offered_rate`` and the
    lane-variable config fields — so the runner can group pending
    cache-miss points by equal keys without ever comparing live objects.
    Like every fingerprint here it is ``PYTHONHASHSEED``-independent, which
    keeps the grouping (and therefore lane order and results) deterministic
    across processes and worker counts.  Per-point *cache* keys are not
    affected: batched points are still stored under their unchanged
    :func:`simulation_cache_key`.
    """
    config_payload = {
        field: value for field, value in config_fingerprint(config).items()
        if field not in LANE_VARIABLE_FIELDS
    }
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": flow_set_fingerprint(route_set),
        "routes": route_set_fingerprint(route_set),
        "config": config_payload,
        "phase_boundaries": sorted((phase_boundaries or {}).items()),
    }
    if fault_schedule:
        payload["faults"] = fault_schedule.to_payload()
    return _digest(payload)


def route_cache_key(topology: Topology, flow_set: FlowSet, router: str,
                    options: Dict[str, object], faults: str) -> str:
    """The content-addressed key of one route set.

    Route selection is deterministic in its inputs: the base *topology*,
    the *flow_set* (names, endpoints and demands, in order), the canonical
    *router* name, the *options* the router is built with (scalar values
    only; BSOR's CDG strategy set enters as its name) and the canonical
    *faults* label (:meth:`~repro.faults.FaultSet.label`).  Simulation-only
    inputs (VC count, kernel, workers, cache location) are absent, so one
    route set serves every simulation of its cell.
    """
    return _digest({
        "schema": ROUTE_SCHEMA_VERSION,
        "topology": topology_fingerprint(topology),
        "flows": _flows(flow_set),
        "router": router,
        "options": options,
        "faults": faults,
    })

"""``repro.cluster`` — sharded multi-server routing with failover.

The horizontal-scaling layer over the engine API: a
:class:`ClusterEngine` (built by
``repro.runtime.connect("cluster://host1:p1,host2:p2,...")``) routes
typed :class:`~repro.runtime.api.RolloutRequest` /
:class:`~repro.runtime.api.TrainRequest` submissions across N backend
engines, turning the single-socket server into a service whose
aggregate throughput grows with the number of hosts:

* :mod:`repro.cluster.placement` — consistent-hash placement by
  ``(model, graph)`` key (:class:`HashRing`), so each asset's caches
  stay hot on one shard, with spill to the least-loaded shard under
  saturation;
* :mod:`repro.cluster.health` — typed shard states
  (:class:`ShardState`: UP / DRAINING / DOWN) and the periodic
  :class:`HealthMonitor`;
* :mod:`repro.cluster.engine` — the :class:`ClusterEngine` itself:
  automatic failover redriving the in-flight streams of a dead shard
  (rollouts and ensemble member chunks alike — one routed stream
  carries both) onto a survivor with exactly-once accounting, a
  routing ledger stored once in the cluster's metrics registry
  (:class:`ClusterStats` / :class:`ShardStatus` are views of it),
  capabilities as the intersection of the backends' declared records,
  broadcast asset registration (including graph *upload* for shards
  with disjoint filesystems), and per-shard serve metrics merged into
  one stats table.

The cluster promise extends the engine promise: the same request
produces bit-identical trajectories whether it runs on a
``local://`` engine or is routed (and even redriven mid-stream) by a
cluster — asserted in ``tests/runtime/test_engine_conformance.py``,
held under generated kill plans by
``tests/properties/test_cluster_failover_property.py`` and exercised
on real sockets by ``benchmarks/test_cluster_scaling.py``.
"""

from repro.runtime.api import NoShardAvailable, ShardError

from repro.cluster.engine import ClusterEngine, ClusterStats, ShardStatus
from repro.cluster.health import HealthMonitor, ShardState
from repro.cluster.placement import HashRing, placement_key

__all__ = [
    "ClusterEngine",
    "ClusterStats",
    "HashRing",
    "HealthMonitor",
    "NoShardAvailable",
    "ShardError",
    "ShardState",
    "ShardStatus",
    "placement_key",
]

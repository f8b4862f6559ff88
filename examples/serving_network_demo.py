#!/usr/bin/env python
"""Serve surrogate rollouts over a real TCP socket through the engine API.

Where ``serving_demo.py`` stays in-process, this demo runs the full
deployment shape inside one script: a ``pool://`` engine's service is
wrapped in a ``ServeServer`` listening on an ephemeral localhost port,
and clients talk to it exclusively through
``repro.runtime.connect("tcp://HOST:PORT")`` — actual sockets,
length-prefixed JSON + ``.npy`` framing, no shared memory. It checks
the serving-layer claims end to end:

* a trajectory fetched through the socket is **bitwise identical** to
  the same request served in-process (the engine promise: the URL
  scheme never changes the bits);
* frames **stream**: the client receives step ``k`` while step ``k+1``
  is still being computed;
* connections are **pooled**: a burst of sequential requests reuses
  one TCP connection instead of dialing per call;
* **declared capabilities**: the remote engine's fixed record says
  training does not cross the wire, and it rejects a ``TrainRequest``
  with the typed ``CapabilityError`` — client-side, before any bytes
  move;
* **admission control** crosses the wire: with a queue cap, an
  overload burst is shed with a typed ``QueueFull`` rejection the
  client can catch, and the stats table reports the split;
* **cluster routing**: two servers behind
  ``connect("cluster://...")`` — consistent-hash placement pins each
  ``(model, graph)`` key to one shard, draining a shard diverts its
  traffic to the survivor, and ``stats()`` merges both shards'
  metrics into one table.

In a real deployment the server side is just
``python -m repro serve --listen HOST:PORT`` (see the README's
two-terminal quickstart); this script folds both terminals into one
process so it can assert the results.

Run:  python examples/serving_network_demo.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.gnn import GNNConfig, MeshGNN, save_checkpoint
from repro.graph import build_distributed_graph
from repro.graph.io import save_distributed_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.runtime import CapabilityError, RolloutRequest, TrainRequest, connect
from repro.serve import QueueFull, ServeConfig, ServeServer

CONFIG = GNNConfig(hidden=8, n_message_passing=2, n_mlp_hidden=1, seed=5)
STEPS = 4
CLIENTS = 6


def bitwise_equal(a, b) -> bool:
    return all(
        x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in zip(a, b)
    ) and len(a) == len(b)


def main() -> None:
    mesh = BoxMesh(4, 4, 2, p=1)
    x0 = taylor_green_velocity(mesh.all_positions())
    dg = build_distributed_graph(mesh, auto_partition(mesh, 4))
    model = MeshGNN(CONFIG)

    with tempfile.TemporaryDirectory(prefix="repro-netdemo-") as tmp:
        ckpt = Path(tmp) / "model.npz"
        save_checkpoint(model, ckpt)
        graph_dir = Path(tmp) / "graphs"
        save_distributed_graph(dg, graph_dir)

        config = ServeConfig(max_batch_size=CLIENTS, max_wait_s=0.02)
        with connect("pool://", config=config) as pool, \
                ServeServer(pool.service) as server:
            print(f"serving on {server.endpoint}")
            remote = connect(f"tcp://{server.endpoint}")
            print(f"capabilities: {remote.capabilities()}")

            # assets register over the wire, by server-visible path
            remote.register_checkpoint("tgv", ckpt, expect_config=CONFIG)
            remote.register_graph_dir("box-r4", graph_dir)
            print(f"assets: models={remote.model_names()} "
                  f"graphs={remote.graph_keys()}")

            request = RolloutRequest(model="tgv", graph="box-r4",
                                     x0=x0, n_steps=STEPS)

            # 1) bitwise consistency: socket == in-process
            in_process = pool.rollout(request).states
            networked = remote.rollout(request).states
            assert bitwise_equal(in_process, networked), \
                "socket transport must not perturb a single bit"
            print(f"socket trajectory bitwise-identical to in-process "
                  f"({STEPS + 1} frames x {networked[0].shape})")

            # 2) frames stream as steps complete
            seen = [frame.step for frame in remote.stream(request)]
            assert seen == list(range(STEPS + 1))
            print(f"streamed {len(seen)} frames incrementally")

            # 3) sequential requests reuse pooled connections
            for _ in range(8):
                remote.rollout(request)
            stats = remote.pool_stats()
            assert stats.dials < stats.reuses, stats
            print(f"connection pool: {stats.dials} dials served "
                  f"{stats.reuses} reuses (no per-request connect)")

            # 4) declared capabilities: training stays off the wire
            try:
                remote.train(TrainRequest(model="tgv", graph="box-r4",
                                          x=x0, target=x0))
                raise AssertionError("remote training must be rejected")
            except CapabilityError as exc:
                print(f"remote TrainRequest rejected up front: {exc}")

            # 5) concurrent networked clients coalesce into batches
            results = [None] * CLIENTS

            def fire(i):
                results[i] = remote.rollout(request).states

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(bitwise_equal(r, in_process) for r in results)
            print(f"{CLIENTS} concurrent networked clients served identically")
            remote.close()

        # 6) admission control over the wire: cap the queue, overload it
        shed_config = ServeConfig(
            max_batch_size=1, max_wait_s=0.0, n_workers=1, max_queue_depth=2
        )
        with connect("pool://", config=shed_config) as pool, \
                ServeServer(pool.service) as server:
            pool.register_checkpoint("tgv", ckpt, expect_config=CONFIG)
            pool.register_graph_dir("box-r4", graph_dir)
            served, shed = [], []

            def hammer(i):
                c = connect(f"tcp://{server.endpoint}")
                try:
                    served.append(c.rollout(RolloutRequest(
                        model="tgv", graph="box-r4", x0=x0, n_steps=STEPS,
                    )))
                except QueueFull as exc:
                    shed.append(exc)
                finally:
                    c.close()

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4 * CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert shed, "overload against a capped queue must shed"
            assert served, "admission must still serve within the cap"
            stats = pool.stats()
            assert stats.admission.shed == len(shed)
            print(f"overload: {len(served)} served, {len(shed)} shed "
                  f"with typed QueueFull rejections")
            print()
            print(pool.stats_markdown())

        # 7) cluster routing: two servers, one engine, merged stats
        config = ServeConfig(max_batch_size=CLIENTS, max_wait_s=0.02)
        with connect("pool://", config=config) as pool_a, \
                ServeServer(pool_a.service) as server_a, \
                connect("pool://", config=config) as pool_b, \
                ServeServer(pool_b.service) as server_b, \
                connect(f"cluster://{server_a.endpoint},"
                        f"{server_b.endpoint}") as cluster:
            cluster.register_checkpoint("tgv", ckpt, expect_config=CONFIG)
            cluster.register_graph_dir("box-r4", graph_dir)
            request = RolloutRequest(model="tgv", graph="box-r4",
                                     x0=x0, n_steps=STEPS)
            primary = cluster.place("tgv", "box-r4")
            for _ in range(3):
                routed = cluster.rollout(request)
                assert bitwise_equal(routed.states, in_process)
            print(f"cluster: 3 requests routed to primary {primary}, "
                  f"bitwise identical to in-process")

            survivor = next(s for s in cluster.shard_ids if s != primary)
            cluster.drain(primary)
            cluster.rollout(request)
            statuses = {s.shard_id: s for s in cluster.cluster_stats().shards}
            assert statuses[survivor].routed == 1
            print(f"drained {primary}: traffic diverted to {survivor}")
            cluster.undrain(primary)

            ledger = cluster.cluster_stats()
            assert ledger.accepted == ledger.completed == 4
            print("exactly-once ledger balanced "
                  f"(accepted={ledger.accepted}, "
                  f"completed={ledger.completed})")
            print()
            print(cluster.stats_markdown())


if __name__ == "__main__":
    main()

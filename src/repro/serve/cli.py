"""``python -m repro serve`` — serving demo and network listener.

Two modes share one asset setup (a checkpointed demo model and a
partitioned graph directory, registered the way a deployment would),
both fronted by the unified engine API
(:func:`repro.runtime.connect`):

* **demo** (default): connect a ``pool://`` engine (the batched
  :class:`~repro.serve.service.InferenceService` underneath), fire a
  burst of concurrent typed rollout requests at it, and print the
  serving stats table.
* **listen** (``--listen HOST:PORT``): additionally bind the
  :class:`~repro.serve.transport.ServeServer` socket front end and
  serve external clients until interrupted — remote processes connect
  with ``repro.runtime.connect("tcp://HOST:PORT")`` (the two-terminal
  quickstart in the README).
* **cluster client** (``--cluster H1:P1,H2:P2,...``): connect a
  :class:`~repro.cluster.ClusterEngine` over listeners started
  elsewhere (e.g. ``tools/launch_cluster.py --serve``), fire the demo
  burst routed across the shards, and print the merged stats table
  plus the per-shard routing table. Every listener builds the same
  deterministic demo assets, so the client can rollout immediately.

Admission control is exposed through ``--max-queue`` (pending-depth cap,
shedding beyond it) and ``--deadline-ms`` (default queue-wait budget).
``--metrics-port`` (listen mode) additionally serves the unified
metrics registry over plain HTTP (``GET /metrics`` Prometheus text,
``/metrics.json``, ``/healthz``) for scrapers that do not speak the
repro wire protocol.
"""

from __future__ import annotations

import argparse
import tempfile
import threading
from contextlib import ExitStack
from pathlib import Path

from repro.gnn import MeshGNN, GNNConfig, save_checkpoint
from repro.graph import build_distributed_graph
from repro.graph.io import save_distributed_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.runtime import RolloutRequest, connect
from repro.serve.service import ServeConfig
from repro.serve.transport import ServeServer, parse_endpoint

DEMO_CONFIG = GNNConfig(hidden=6, n_message_passing=2, n_mlp_hidden=1, seed=7)
#: asset names every demo/listen server registers (deterministic, so a
#: cluster of listeners agrees on them without coordination)
DEMO_MODEL = "tgv-surrogate"
DEMO_GRAPH = "tgv-box"


def listen_endpoint(value: str) -> tuple[str, int]:
    """``argparse`` type for ``--listen`` (HOST:PORT with a real port)."""
    try:
        return parse_endpoint(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="run the batched surrogate-inference service "
        "(demo burst, or a network listener with --listen)",
    )
    p.add_argument("--requests", type=int, default=12,
                   help="concurrent rollout requests to fire (default 12)")
    p.add_argument("--steps", type=int, default=3,
                   help="rollout steps per request (default 3)")
    p.add_argument("--ranks", type=int, default=2,
                   help="world size of the partitioned graph asset (default 2)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="dynamic batching max batch size (default 8)")
    p.add_argument("--max-wait-ms", type=float, default=20.0,
                   help="dynamic batching window in ms (default 20)")
    p.add_argument("--mesh", type=int, nargs=3, default=(4, 4, 2),
                   metavar=("NX", "NY", "NZ"),
                   help="box-mesh element counts (default 4 4 2)")
    p.add_argument("--listen", type=listen_endpoint, default=None,
                   metavar="HOST:PORT",
                   help="serve external clients on this socket endpoint "
                   "(port 0 picks an ephemeral port) instead of running "
                   "the demo burst")
    p.add_argument("--cluster", default=None, metavar="H1:P1,H2:P2,...",
                   help="client mode: route the demo burst across these "
                   "serve listeners through a cluster:// engine instead "
                   "of starting a service")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="admission control: shed requests beyond N pending "
                   "(default: unbounded)")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="admission control: default per-request queue-wait "
                   "deadline (default: none)")
    p.add_argument("--no-affinity", action="store_true",
                   help="disable sticky worker-key affinity")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="with --listen: also serve GET /metrics (Prometheus "
                   "text), /metrics.json, and /healthz over HTTP on this "
                   "port (0 picks an ephemeral port)")
    return p


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue_depth=args.max_queue,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms / 1e3
        ),
        affinity=not args.no_affinity,
    )


def _demo_assets(args: argparse.Namespace, tmp_path: Path):
    """Build the demo mesh/model assets a deployment would load from disk."""
    nx, ny, nz = args.mesh
    mesh = BoxMesh(nx, ny, nz, p=1)
    dg = build_distributed_graph(mesh, auto_partition(mesh, args.ranks))
    x0 = taylor_green_velocity(mesh.all_positions())
    ckpt = tmp_path / "model.npz"
    save_checkpoint(MeshGNN(DEMO_CONFIG), ckpt)
    graph_dir = tmp_path / "graphs"
    save_distributed_graph(dg, graph_dir)
    return x0, ckpt, graph_dir


def _fire_burst(engine, args: argparse.Namespace, x0, label: str = "") -> None:
    """Fire the demo burst of concurrent typed rollouts and report.

    Shared by the in-process demo and the cluster client mode: the
    burst logic (threads, per-result assertion, stats table) must not
    drift between the two.
    """
    results: list = [None] * args.requests

    def fire(i: int) -> None:
        results[i] = engine.rollout(RolloutRequest(
            model=DEMO_MODEL, graph=DEMO_GRAPH,
            x0=x0, n_steps=args.steps,
        ))

    threads = [
        threading.Thread(target=fire, args=(i,), name=f"client{i}")
        for i in range(args.requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for result in results:
        assert result is not None and len(result.states) == args.steps + 1
    print(f"all {args.requests} {label}trajectories served "
          f"({args.steps + 1} frames each)\n")
    print(engine.stats_markdown())


def run_demo(args: argparse.Namespace) -> int:
    nx, ny, nz = args.mesh
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        x0, ckpt, graph_dir = _demo_assets(args, Path(tmp))
        print(f"mesh {nx}x{ny}x{nz} (p=1), {args.ranks} ranks, "
              f"{args.requests} requests x {args.steps} steps, "
              f"max_batch={args.max_batch}, window={args.max_wait_ms}ms\n")
        with connect("pool://", config=_serve_config(args)) as engine:
            engine.register_checkpoint(DEMO_MODEL, ckpt,
                                       expect_config=DEMO_CONFIG)
            engine.register_graph_dir(DEMO_GRAPH, graph_dir)
            _fire_burst(engine, args, x0)
    return 0


def run_cluster(args: argparse.Namespace) -> int:
    """Client mode: fire the demo burst through a cluster:// engine.

    The listeners (started with ``--listen`` or
    ``tools/launch_cluster.py``) each registered the deterministic demo
    assets, so the client only needs the matching initial state — built
    here from the same ``--mesh`` arguments.
    """
    nx, ny, nz = args.mesh
    mesh = BoxMesh(nx, ny, nz, p=1)
    x0 = taylor_green_velocity(mesh.all_positions())
    with connect(f"cluster://{args.cluster}") as engine:
        print(f"cluster of {len(engine.shard_ids)} shard(s): "
              f"{', '.join(engine.shard_ids)}")
        print(f"capabilities: {engine.capabilities()}")
        print(f"placement of ({DEMO_MODEL!r}, {DEMO_GRAPH!r}): "
              f"{engine.place(DEMO_MODEL, DEMO_GRAPH)}\n")
        _fire_burst(engine, args, x0, label="routed ")
    return 0


def run_listen(
    args: argparse.Namespace,
    ready=None,
    stop: threading.Event | None = None,
) -> int:
    """Serve external clients until interrupted (or ``stop`` is set).

    ``ready`` (a callback receiving the started
    :class:`~repro.serve.transport.ServeServer`) and ``stop`` exist so
    tests can synchronize with a listener running on a thread and learn
    its ephemeral port; interactive use just hits Ctrl-C.
    """
    host, port = args.listen
    with ExitStack() as stack:
        tmp = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-serve-")
        )
        x0, ckpt, graph_dir = _demo_assets(args, Path(tmp))
        del x0  # clients bring their own initial states
        engine = stack.enter_context(
            connect("pool://", config=_serve_config(args))
        )
        engine.register_checkpoint(DEMO_MODEL, ckpt,
                                   expect_config=DEMO_CONFIG)
        engine.register_graph_dir(DEMO_GRAPH, graph_dir)
        server = stack.enter_context(ServeServer(engine.service, host, port))
        print(f"serving on {server.endpoint} "
              f"(model {DEMO_MODEL!r}, graph {DEMO_GRAPH!r}; "
              f"max_queue={args.max_queue}, "
              f"deadline_ms={args.deadline_ms})")
        if args.metrics_port is not None:
            from repro.obs.http import MetricsHTTPServer

            metrics = stack.enter_context(MetricsHTTPServer(
                engine.metrics_registry, host=host, port=args.metrics_port,
            ))
            print(f"metrics on http://{metrics.endpoint}/metrics "
                  f"(also /metrics.json, /healthz)")
        print("connect with: repro.runtime.connect"
              f"('tcp://{server.endpoint}')  — Ctrl-C to stop")
        if ready is not None:
            ready(server)
        try:
            if stop is not None:
                stop.wait()
            else:
                threading.Event().wait()  # serve until interrupted
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cluster is not None and args.listen is not None:
        parser.error("--cluster (client mode) and --listen (server mode) "
                     "are mutually exclusive")
    if args.cluster is not None:
        return run_cluster(args)
    if args.listen is not None:
        return run_listen(args)
    return run_demo(args)


if __name__ == "__main__":
    raise SystemExit(main())

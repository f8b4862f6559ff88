"""The four workloads: what one op is, how it is set up, how it is checked.

Every workload is a closed loop (a caller issues its next op only after
the previous one returned) and drives the system through public
functions only. ``setup()`` builds inputs, engines and the reference
outputs, ``run_warmup()`` the warm-up ops; ``op()`` is the timed call;
``check()`` compares what it returned against the reference.

Sizes are chosen so that ~24 s of timed ops yield well over 100 samples
on two cores, 12 or more in each of a run's 9 blocks.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import threading
import time

import numpy as np

import harness
from repro.comm import ThreadWorld
from repro.ensemble import EnsembleRequest, PerturbationSpec
from repro.gnn import GNNConfig, MeshGNN, rollout, save_checkpoint, train_distributed, train_single
from repro.graph import build_distributed_graph, build_full_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.obs import install_profiler, uninstall_profiler
from repro.runtime import RolloutRequest, connect
from repro.serve import ServeConfig
from repro.tensor import naive_aggregation
from train_mirror import mirrored_training

N_STEPS = 4
#: mesh and model of each workload (``BoxMesh(nx, ny, nz, p=2)``)
SPECS = {
    "rollout_r1": {"mesh": (5, 5, 4), "config": dict(hidden=32, n_message_passing=4, n_mlp_hidden=2)},
    "train_r2": {"mesh": (5, 5, 4), "config": dict(hidden=16, n_message_passing=4, n_mlp_hidden=2)},
    "serve_tcp": {"mesh": (2, 2, 2), "config": dict(hidden=8, n_message_passing=2, n_mlp_hidden=1)},
    "serve_pool_mixed": {"mesh": (4, 4, 2), "config": dict(hidden=16, n_message_passing=2, n_mlp_hidden=1)},
}
TCP_SERVER = dict(workers=1, max_batch=8, max_wait_s=0.0)
#: ``affinity=False``: with the default sticky worker-key affinity every process locks into
#: a placement of the five lanes on the two workers by chance, and round times then differ by
#: +-20 % between processes (and are ~10 % slower on average) - no bound could be held on it.
#: The ledger's short multi-tenant run keeps the default, for ``serve.sched_affinity_hit_rate``.
POOL_CONFIG = dict(n_workers=2, max_batch_size=4, max_wait_s=0.002, affinity=False)
TRAIN_ITERATIONS = 2
ENSEMBLE_MEMBERS = 8
ENSEMBLE_SUMMARIES = ("mean", "variance")


def build_inputs(name: str, seeds: dict):
    """``(mesh, config, x0)`` of a workload, everything random from ``seeds``."""
    spec = SPECS[name]
    mesh = BoxMesh(*spec["mesh"], p=2)
    config = GNNConfig(seed=seeds["model"] % (2**31), **spec["config"])
    return mesh, config, harness.noisy_taylor_green(mesh.all_positions(), seeds["noise"])


class ServerProcess:
    """One ``server_main.py`` child. Construction only starts it (so several
    can boot side by side); ``endpoint`` waits for its announcement and
    ``stop()`` reaps it with a bounded wait."""

    def __init__(self, workers: int, max_batch: int, max_wait_s: float):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(harness.HERE / "server_main.py"),
             "--workers", str(workers), "--max-batch", str(max_batch),
             "--max-wait-s", str(max_wait_s)],
            env=harness.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.pid = self.proc.pid
        self._endpoint = None

    @property
    def endpoint(self) -> str:
        if self._endpoint is None:
            watchdog = threading.Timer(60.0, self.proc.kill)
            watchdog.start()
            try:
                line = self.proc.stdout.readline()
            finally:
                watchdog.cancel()
            if not line.startswith("serving on "):
                self.stop()
                raise RuntimeError(f"server did not announce an endpoint: {line!r}")
            self._endpoint = line.split()[2]
        return self._endpoint

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # EOF on stdin is the server's stop signal
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        self.proc.stdout.close()


def register_remote(engine, name: str, model: MeshGNN, key: str, graphs, tmp_dir) -> None:
    """Register assets the way a remote client must: checkpoint by path, graph by upload."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    path = tmp_dir / f"{name}.npz"
    save_checkpoint(model, path)
    engine.register_checkpoint(name, path, expect_config=model.config)
    engine.register_graph(key, graphs)


class Workload:
    """Base: one named closed-loop workload."""

    name = ""
    clients = 1
    #: warm-up ops per client: the first few ops after set-up run 5-10 % slow (cold caches, heap growth)
    warmup = 8
    #: an op is a server child + this process, so RSS and CPU add the child
    server: ServerProcess | None = None
    #: an op's wall time is compute, so it slows down with the host (``harness.block_stats``)
    wall_follows_host = True

    def __init__(self, seed: int, rec: harness.Recorder):
        self.seeds = harness.derive_seeds(seed)
        self.rec = rec
        self.mesh, self.config, self.x0 = build_inputs(self.name, self.seeds)
        self.node_steps_per_op = self.mesh.n_unique_nodes * N_STEPS

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, client: int, i: int):
        raise NotImplementedError

    def check(self, client: int, i: int, out) -> bool:
        raise NotImplementedError

    def counters(self) -> dict:
        """Shed/expired counts of the run (must be 0: no op may be refused)."""
        return {}

    def teardown(self) -> None:
        pass

    def begin_traced(self, rec: harness.Recorder) -> None:
        self.rec = rec

    def end_traced(self) -> None:
        pass

    def corrupt_reference(self) -> None:
        """Self-test hook: make every later output check fail."""
        ref = self.reference
        while isinstance(ref, dict):
            ref = next(iter(ref.values()))
        ref[-1] = ref[-1] + 1.0

    def run_warmup(self) -> None:
        for i in range(self.warmup):
            for client in range(self.clients):
                if not self.check(client, -1 - i, self.op(client, -1 - i)):
                    raise AssertionError(f"{self.name}: warm-up op failed its output check")


class RolloutR1(Workload):
    """Inference compute only: one caller, the un-partitioned graph."""

    name = "rollout_r1"

    def setup(self) -> None:
        self.graph = build_full_graph(self.mesh)
        self.model = MeshGNN(self.config)
        with naive_aggregation():
            self.reference = rollout(self.model, self.graph, self.x0, N_STEPS, workspace=False)

    def begin_traced(self, rec) -> None:
        self.rec = rec
        self.profiler = install_profiler()

    def end_traced(self) -> None:
        uninstall_profiler()

    def op(self, client, i):
        if not self.rec.enabled:
            return rollout(self.model, self.graph, self.x0, N_STEPS)
        before = self.profiler.snapshot()
        with self.rec.span("gnn.rollout", "gnn", op=i) as sid:
            out = rollout(self.model, self.graph, self.x0, N_STEPS)
        self._merge_profile(sid, i, before, self.profiler.snapshot())
        return out

    def _merge_profile(self, sid: int, op: int, before: dict, after: dict) -> None:
        """Hang this op's share of the hot-loop profile under its span. The
        profiler keeps totals, not timestamps, so children are laid end to end."""
        def total(name):
            return after.get(name, {}).get("total_s", 0.0) - before.get(name, {}).get("total_s", 0.0)

        def add(name, layer, start, parent):
            return self.rec.add(name, layer, start, start + total(name), parent, op), start + total(name)

        start = self.rec.spans[sid][3]
        step, _ = add("rollout.step", "gnn", start, sid)
        _, edge_end = add("rollout.edge_features", "graph", start, step)
        forward, _ = add("rollout.model_forward", "gnn", edge_end, step)
        _, gemm_end = add("fused_gemm", "tensor", edge_end, forward)
        add("plan.scatter_add", "tensor", gemm_end, forward)

    def check(self, client, i, out) -> bool:
        return harness.bitwise_equal(out, self.reference)


class TrainR2(Workload):
    """The paper's workload: consistent 2-rank training, one job per op."""

    name = "train_r2"

    def __init__(self, seed, rec):
        super().__init__(seed, rec)
        self.node_steps_per_op = self.mesh.n_unique_nodes * TRAIN_ITERATIONS

    def setup(self) -> None:
        self.target = taylor_green_velocity(self.mesh.all_positions(), t=0.1)
        self.dgraph = build_distributed_graph(self.mesh, auto_partition(self.mesh, 2))
        self.rank_inputs = [
            (g, self.x0[g.global_ids], self.target[g.global_ids]) for g in self.dgraph.locals
        ]
        self.reference = train_single(
            self.config, build_full_graph(self.mesh), self.x0, self.target, iterations=TRAIN_ITERATIONS
        ).losses
        # the mirrored loop (what the traced run times) must be train_model's loop
        mirrored = mirrored_training(self, harness.Recorder(False), TRAIN_ITERATIONS, check_replicas=True)
        if [r.losses for r in mirrored] != [r.losses for r in self.run_job()]:
            raise AssertionError("mirrored training loop diverged from train_model")

    def run_job(self):
        def program(comm):
            graph, x, y = self.rank_inputs[comm.rank]
            return train_distributed(
                comm, self.config, graph, x, y, halo_mode="n-a2a", iterations=TRAIN_ITERATIONS
            )

        return ThreadWorld(2).run(program)

    def op(self, client, i):
        if self.rec.enabled:
            with self.rec.span("gnn.train_job", "gnn", op=i):
                return mirrored_training(self, self.rec, TRAIN_ITERATIONS)
        return self.run_job()

    def check(self, client, i, out) -> bool:
        close = all(
            len(rank.losses) == TRAIN_ITERATIONS
            and all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(rank.losses, self.reference))
            for rank in out
        )
        states = [rank.state_dict for rank in out]
        return close and all(np.array_equal(states[0][k], states[1][k]) for k in states[0])


def span_layer(span) -> str:
    """Which layer a program span (``repro.obs.Span``) is charged to."""
    if span.component == "client":
        return "runtime"
    if span.component == "router":
        return "cluster"
    return "ensemble" if span.name in ("perturb", "reduce") else "serve"


def merge_program_spans(rec: harness.Recorder, engine, trace_id: str, parent: int, op) -> None:
    """Hang the program's own spans for one request under the harness span."""
    for span in engine.get_trace(trace_id):
        rec.add(f"{span.component}.{span.name}", span_layer(span), span.start_s,
                span.start_s + span.duration_s, parent, op)


class ServeTcp(Workload):
    """The per-request path: a tiny model behind a real socket."""

    name = "serve_tcp"
    clients = 2
    warmup = 10
    #: 40 of a request's 44 ms are a wire stall (``runtime.tcp_overhead_ms``), a timer: in a slow
    #: hour of the host the p50 moved by 0.07 % while CPU per op rose by 36 %. Scaling latency and
    #: throughput by host speed would put the host's noise in, not take it out; CPU per op is scaled.
    wall_follows_host = False
    #: traced run: fetch the server's spans for every Nth op (a fetch is a round trip)
    trace_every = 4

    def setup(self) -> None:
        self.tmp = harness.OUT_DIR / f"tmp-{self.name}-{self.seeds['model']}"
        model = MeshGNN(self.config)
        graph = build_full_graph(self.mesh)
        self.reference = rollout(model, graph, self.x0, N_STEPS)
        self.server = ServerProcess(**TCP_SERVER)
        self.engine = connect(f"tcp://{self.server.endpoint}")
        register_remote(self.engine, "m", model, "g", [graph], self.tmp)

    def op(self, client, i):
        request = RolloutRequest("m", "g", self.x0, N_STEPS)
        with self.rec.span("runtime.rollout", "runtime", op=2 * i + client) as sid:
            states = self.engine.rollout(request).states
        if sid is not None and i % self.trace_every == 0:
            merge_program_spans(self.rec, self.engine, request.trace_id, sid, 2 * i + client)
        return states

    def check(self, client, i, out) -> bool:
        return harness.bitwise_equal(out, self.reference)

    def counters(self) -> dict:
        admission = self.engine.stats().admission
        return {"shed": admission.shed, "expired": admission.expired + admission.expired_at_close}

    def teardown(self) -> None:
        self.engine.close()
        self.server.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


class ServePoolMixed(Workload):
    """Multi-tenant backlog on an in-process pool: 4 keys + an ensemble per round."""

    name = "serve_pool_mixed"
    clients = 2
    warmup = 3
    models = ("m0", "m1")
    graphs = ("g1", "g2")
    pool_config = POOL_CONFIG
    schedule_rounds = 64

    def __init__(self, seed, rec):
        super().__init__(seed, rec)
        self.keys = [(m, g) for m in self.models for g in self.graphs]
        self.node_steps_per_op = (
            self.mesh.n_unique_nodes * N_STEPS * (len(self.keys) + ENSEMBLE_MEMBERS)
        )
        self.schedule = harness.mixed_schedule(
            self.seeds["order"], self.clients, self.schedule_rounds, len(self.keys)
        )

    def ensemble_request(self) -> EnsembleRequest:
        return EnsembleRequest(
            "m0", "g1", self.x0, n_steps=N_STEPS, n_members=ENSEMBLE_MEMBERS,
            perturbation=PerturbationSpec(seed=self.seeds["perturb"] % (2**31), noise_scale=1e-3),
            summaries=ENSEMBLE_SUMMARIES,
        )

    def register(self, engine) -> None:
        for i, name in enumerate(self.models):
            engine.register_model(name, MeshGNN(self.config.with_seed(self.config.seed + i)))
        engine.register_graph("g1", [build_full_graph(self.mesh)])
        engine.register_graph(
            "g2", list(build_distributed_graph(self.mesh, auto_partition(self.mesh, 2)).locals)
        )

    def setup(self) -> None:
        with connect("local://") as local:
            self.register(local)
            self.reference = {
                key: local.rollout(RolloutRequest(*key, self.x0, N_STEPS)).states for key in self.keys
            }
            self.ensemble_reference = local.ensemble(self.ensemble_request()).frames
        for model in self.models:  # Eq. 2: the partitioned key reproduces the un-partitioned one
            err = harness.max_rel_err(self.reference[(model, "g2")], self.reference[(model, "g1")])
            if err > 1e-12:
                raise AssertionError(f"2-rank rollout of {model} is {err:.2e} off the 1-rank one")
        self.engine = connect("pool://", config=ServeConfig(**self.pool_config))
        self.register(self.engine)

    def op(self, client, i):
        order = self.schedule[client, i % self.schedule_rounds]
        op_id = 2 * i + client
        with self.rec.span("round", "harness", op=op_id):
            with self.rec.span("runtime.submit", "runtime"):
                requests = [RolloutRequest(*self.keys[k], self.x0, N_STEPS) for k in order]
                futures = [self.engine.submit(r) for r in requests]
            ensemble = self.ensemble_request()
            with self.rec.span("runtime.ensemble", "runtime") as ens_sid:
                frames = self.engine.ensemble(ensemble).frames
            with self.rec.span("runtime.result", "runtime") as wait_sid:
                states = [f.result().states for f in futures]
        if ens_sid is not None:
            merge_program_spans(self.rec, self.engine, ensemble.trace_id, ens_sid, op_id)
            for request in requests:
                merge_program_spans(self.rec, self.engine, request.trace_id, wait_sid, op_id)
        return [self.keys[k] for k in order], states, frames

    def check(self, client, i, out) -> bool:
        keys, states, frames = out
        rollouts_ok = all(harness.bitwise_equal(s, self.reference[k]) for k, s in zip(keys, states))
        return rollouts_ok and len(frames) == len(self.ensemble_reference) and all(
            a.step == b.step and sorted(a.summaries) == sorted(b.summaries)
            and all(np.array_equal(a.summaries[n], b.summaries[n]) for n in a.summaries)
            for a, b in zip(frames, self.ensemble_reference)
        )

    def counters(self) -> dict:
        admission = self.engine.stats().admission
        return {"shed": admission.shed, "expired": admission.expired + admission.expired_at_close}

    def teardown(self) -> None:
        self.engine.close()


WORKLOADS = {w.name: w for w in (RolloutR1, TrainR2, ServeTcp, ServePoolMixed)}


def timed_phase(workload: Workload, seconds: float | None, ops: int | None, first_op: int = 0) -> dict:
    """Run the closed loop: ``workload.clients`` threads until ``seconds``
    elapse (or ``ops`` ops in total, the ``--quick`` form). Checks run
    after each op's clock stops. Every client numbers its ops from
    ``first_op``; ``next_op`` is where the next phase of the run goes on."""
    samples: list = []  # (seconds, passed its check, op number); list.append is atomic
    per_client = None if ops is None else -(-ops // workload.clients)
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def client_loop(client: int) -> None:
        i = first_op
        while (i < first_op + per_client) if per_client is not None else (time.perf_counter() < deadline):
            t0 = time.perf_counter()
            try:
                out = workload.op(client, i)
                dt = time.perf_counter() - t0
                ok = workload.check(client, i, out)
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                dt, ok = time.perf_counter() - t0, False
                print(f"{workload.name}: op {i} of client {client} raised {exc!r}", file=sys.stderr)
            samples.append((dt, ok, i))
            i += 1

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"client{c}")
        for c in range(1, workload.clients)
    ]
    for t in threads:
        t.start()
    client_loop(0)
    for t in threads:
        t.join()
    return {"latencies_s": [s[0] for s in samples], "failed": sum(not s[1] for s in samples),
            "wall_s": time.perf_counter() - started, "next_op": 1 + max(s[2] for s in samples)}

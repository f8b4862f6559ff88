"""The per-layer ledger: one number per layer metric, measured in isolation.

Each section times calls into one layer's public functions on the
tensors of the workload that leans on that layer (sizes come from
``workloads.SPECS``), or reads one of the program's own probes
(``install_profiler``, ``get_trace``, ``engine.stats``, ``cluster_stats``,
``pool_stats``, ``Communicator.stats``). Which end-to-end metric each
number should move, and where it must not, is tabulated in README.md.

Counts listed in ``harness.EXACT_COUNTS`` come from fixed call
sequences and must repeat exactly; everything else is a wall-clock
median on a shared two-core box.
"""

from __future__ import annotations

import io
import shutil
import statistics
import time

import numpy as np

import harness
import workloads as wl
from repro.cluster import HashRing, placement_key
from repro.comm import ThreadWorld, halo_exchange_tensor
from repro.ensemble import perturb_member, reduce_frame
from repro.gnn import MeshGNN, rollout, train_distributed
from repro.gnn.rollout import workspace_steps
from repro.graph import build_distributed_graph, build_full_graph
from repro.graph.plans import compile_graph_plans
from repro.mesh import BoxMesh, auto_partition
from repro.nn import Adam
from repro.obs import MetricsRegistry, TraceBuffer, install_profiler, uninstall_profiler
from repro.runtime import RolloutRequest, connect
from repro.serve import GraphCache, ServeConfig, execute_batch, protocol, tile_local_graph
from repro.serve.executor import WorkerArenas
from repro.tensor import InferenceArena, Tensor, fast_math, inference_mode
from repro.tensor.fused import fused_aggregate, fused_edge_mlp, fused_layer_norm, fused_node_mlp
from train_mirror import PHASES, mirrored_training


def med(fn, reps: int, warm: int = 1) -> float:
    """Median seconds of ``reps`` calls (after ``warm`` unrecorded ones)."""
    for _ in range(warm):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_call(fn, n: int) -> float:
    """Mean seconds per call over a tight loop of ``n`` (microsecond-scale ops)."""
    fn()
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


class Ledger:
    """Builds the inputs once, then measures layer by layer."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.seeds = harness.derive_seeds(seed)
        self.scale = 3 if quick else 1  # quick divides every repetition count
        self.out: dict = {}
        self.tmp = harness.OUT_DIR / f"tmp-ledger-{self.seeds['model']}"

    def reps(self, n: int) -> int:
        return max(2, n // self.scale)

    def measure(self) -> dict:
        try:
            self.mesh_graph()
            self.tensor()
            self.comm_nn_gnn_training()
            self.gnn_inference()
            self.serve_isolated()
            self.engines()
            self.obs()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return self.out

    # -- mesh, graph ---------------------------------------------------------------

    def mesh_graph(self) -> None:
        out, dims = self.out, wl.SPECS["rollout_r1"]["mesh"]
        out["mesh.build_ms"] = 1e3 * med(lambda: BoxMesh(*dims, p=2).all_positions(), self.reps(9))
        mesh = BoxMesh(*dims, p=2)
        out["mesh.partition_ms"] = 1e3 * med(lambda: auto_partition(mesh, 2), self.reps(9))
        part = auto_partition(mesh, 2)
        out["mesh.partition_imbalance"] = part.imbalance
        out["graph.build_full_ms"] = 1e3 * med(lambda: build_full_graph(mesh), self.reps(5))
        out["graph.build_distributed_ms"] = 1e3 * med(
            lambda: build_distributed_graph(mesh, part), self.reps(5)
        )
        graph = build_full_graph(mesh)
        out["graph.plan_compile_ms"] = 1e3 * med(lambda: compile_graph_plans(graph), self.reps(5))
        out["graph.edge_attr_ms"] = 1e3 * med(graph.edge_attr, self.reps(9))
        for ranks in (2, 4, 8):
            locals_ = build_distributed_graph(mesh, auto_partition(mesh, ranks)).locals
            out[f"graph.halo_node_fraction_r{ranks}"] = (
                sum(g.n_halo for g in locals_) / sum(g.n_local for g in locals_)
            )

    # -- tensor ----------------------------------------------------------------------

    def tensor(self) -> None:
        out = self.out
        mesh, config, x0 = wl.build_inputs("rollout_r1", self.seeds)
        graph, model = build_full_graph(mesh), MeshGNN(config)
        n, e, h = graph.n_local, graph.n_edges, config.hidden
        rng = np.random.default_rng(self.seeds["noise"])
        x, edges = rng.standard_normal((n, h)), rng.standard_normal((e, h))
        src, dst = graph.edge_index
        plan, layer = graph.plans.scatter_dst, model.processor[0]
        acc = np.zeros((n, h))
        out["tensor.scatter_add_us"] = 1e6 * med(lambda: plan.scatter_add(edges, out=acc), self.reps(30))

        def naive():
            np.add.at(np.zeros((n, h)), dst, edges)

        out["tensor.scatter_add_naive_us"] = 1e6 * med(naive, self.reps(15))
        inv_degree = graph.inv_edge_degree[:, None]
        norm = layer.edge_mlp.norm
        with inference_mode():  # the kernels draw their buffers from the arena, as in the hot loop
            edge_kernel, node_kernel = layer.edge_mlp.kernel(), layer.node_mlp.kernel()
            out["tensor.fused_edge_mlp_ms"] = 1e3 * med(
                lambda: fused_edge_mlp(x, edges, src, dst, edge_kernel), self.reps(15)
            )
            out["tensor.fused_node_mlp_ms"] = 1e3 * med(
                lambda: fused_node_mlp(x, acc, node_kernel), self.reps(15)
            )
            out["tensor.fused_aggregate_us"] = 1e6 * med(
                lambda: fused_aggregate(edges, inv_degree, plan), self.reps(30)
            )
            out["tensor.layer_norm_us"] = 1e6 * med(
                lambda: fused_layer_norm(edges, norm.gamma.data, norm.beta.data), self.reps(30)
            )
        # machine calibration, same run: what a kernel win can at most be measured against
        a = rng.standard_normal((512, 512))
        out["tensor.gemm_gflops"] = 2 * 512**3 / med(lambda: a @ a, self.reps(9)) / 1e9
        big, dest = np.ones(1 << 23), np.empty(1 << 23)  # 64 MiB each, far beyond the caches
        out["tensor.copy_gbs"] = 2 * big.nbytes / med(lambda: np.copyto(dest, big), self.reps(5)) / 1e9
        out["tensor.step_bytes_computed"] = step_bytes(n, e, config)
        arena = InferenceArena()

        def steps():
            workspace_steps(model, graph, x0, wl.N_STEPS, None, "n-a2a", False,
                            lambda step, state: None, arena=arena)

        steps()
        warm = arena.reallocations
        steps()
        out["tensor.arena_reallocations_steady"] = arena.reallocations - warm
        out["tensor.arena_peak_bytes"] = arena.nbytes

    # -- comm, nn, and the training split of gnn ----------------------------------------

    def comm_nn_gnn_training(self) -> None:
        out = self.out
        job = wl.TrainR2(self.seed, harness.Recorder(False))
        job.setup()
        width = job.config.hidden
        n_params = MeshGNN(job.config).num_parameters()
        n_bar, n_halo = self.reps(300), self.reps(60)

        def probes(comm):
            graph = job.rank_inputs[comm.rank][0]
            spec = graph.halo.spec
            rows = np.random.default_rng(comm.rank).standard_normal((graph.n_local, width))
            flat = np.zeros(n_params)
            barrier = per_call(comm.barrier, n_bar)
            fwd, bwd = [], []
            for _ in range(n_halo):
                t = Tensor(rows, requires_grad=True)
                t0 = time.perf_counter()
                halo = halo_exchange_tensor(t, spec, comm, "n-a2a")
                t1 = time.perf_counter()
                halo.backward(np.ones_like(halo.data))
                bwd.append(time.perf_counter() - t1)
                fwd.append(t1 - t0)
            reduce_s = per_call(lambda: comm.all_reduce_sum(flat), n_halo)
            return barrier, statistics.median(fwd), statistics.median(bwd), reduce_s

        barrier, fwd, bwd, reduce_s = ThreadWorld(2).run(probes)[0]
        out["comm.barrier_us"] = 1e6 * barrier
        out["comm.halo_exchange_us"] = 1e6 * fwd
        out["comm.halo_exchange_bwd_us"] = 1e6 * bwd
        out["comm.all_reduce_us"] = 1e6 * reduce_s

        def traffic(ranks: int, halo_mode: str):
            parts = build_distributed_graph(job.mesh, auto_partition(job.mesh, ranks)).locals

            def program(comm):
                g = parts[comm.rank]
                train_distributed(comm, job.config, g, job.x0[g.global_ids], job.target[g.global_ids],
                                  halo_mode=halo_mode, iterations=1)
                return comm.stats

            total = ThreadWorld(ranks).run(program)
            return (sum(s.bytes_sent for s in total), sum(s.messages for s in total),
                    sum(sum(s.calls.values()) for s in total))

        for ranks in (2, 4):  # 4 ranks on 2 cores: counts only, no wall clock
            stats = traffic(ranks, "n-a2a")
            for name, value in zip(("bytes", "messages", "calls"), stats):
                out[f"comm.{name}_per_iter_r{ranks}"] = value
        out["comm.a2a_over_na2a_bytes_r4"] = traffic(4, "a2a")[0] / out["comm.bytes_per_iter_r4"]

        # the mirrored loop: forward / loss / backward / sync / step, rank 0's clocks
        iters = self.reps(4)

        def iteration(halo_mode):
            runs = [mirrored_training(job, harness.Recorder(False), iters, halo_mode)[0]
                    for _ in range(self.reps(3))]
            best = min(runs, key=lambda r: r.iteration_s)
            return best.iteration_s / iters, {p: best.phases_s[p] / iters for p in PHASES}

        iter_s, phases = iteration("n-a2a")
        out["gnn.forward_grad_ms"] = 1e3 * phases["forward"]
        out["gnn.loss_ms"] = 1e3 * phases["loss"]
        out["gnn.backward_ms"] = 1e3 * phases["backward"]
        out["gnn.grad_sync_ms"] = 1e3 * phases["grad_sync"]
        out["gnn.iteration_unattributed_ms"] = 1e3 * (iter_s - sum(phases.values()))
        job_s = med(job.run_job, self.reps(7), warm=3)
        out["gnn.job_overhead_ms"] = 1e3 * (job_s - wl.TRAIN_ITERATIONS * iter_s)
        out["comm.halo_cost_fraction"] = 1.0 - iteration("none")[0] / iter_s

        model = MeshGNN(job.config)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        out["nn.adam_step_ms"] = 1e3 * med(Adam(model.parameters()).step, self.reps(20))
        mlp = model.processor[0].edge_mlp
        rows = Tensor(np.random.default_rng(0).standard_normal((job.dgraph.local(0).n_edges, 3 * width)))
        out["nn.mlp_forward_ms"] = 1e3 * med(lambda: mlp(rows), self.reps(10))

    # -- gnn: the inference path ---------------------------------------------------------

    def gnn_inference(self) -> None:
        out = self.out
        mesh, config, x0 = wl.build_inputs("rollout_r1", self.seeds)
        graph, model = build_full_graph(mesh), MeshGNN(config)
        edge_attr = graph.geometric_edge_attr()
        with inference_mode(), fast_math(True):
            encoded = model.edge_encoder(Tensor(edge_attr)).data
            forward_s = med(
                lambda: model(Tensor(x0), edge_attr, graph, None, "n-a2a", encoded_edge_attr=encoded),
                self.reps(20), warm=2,
            )

        def r1():
            return rollout(model, graph, x0, wl.N_STEPS)

        rollout_s = med(r1, self.reps(7))
        out["gnn.forward_ms"] = 1e3 * forward_s
        out["gnn.rollout_overhead_ms"] = 1e3 * (rollout_s - wl.N_STEPS * forward_s)

        profiler = install_profiler()
        try:
            profiled_s = med(r1, self.reps(7))
            snap = profiler.snapshot()
        finally:
            uninstall_profiler()
        named = sum(v["total_s"] for k, v in snap.items() if not k.startswith("rollout."))
        out["gnn.profile_named_share"] = named / snap["rollout.model_forward"]["total_s"]
        out["obs.profiler_overhead_ratio"] = profiled_s / rollout_s

        dgraph = build_distributed_graph(mesh, auto_partition(mesh, 2))

        def r2():
            def program(comm):
                g = dgraph.local(comm.rank)
                return rollout(model, g, x0[g.global_ids], wl.N_STEPS, comm, "n-a2a")

            return ThreadWorld(2).run(program)

        out["gnn.rollout_r2_over_r1"] = med(r2, self.reps(5)) / rollout_s
        per_rank = r2()
        assembled = [dgraph.assemble_global([t[s] for t in per_rank]) for s in range(wl.N_STEPS + 1)]
        out["gnn.consistency_max_rel_err_r2"] = harness.max_rel_err(assembled, r1())

    # -- serve: framing, cache, tiling, executor --------------------------------------------

    def serve_isolated(self) -> None:
        out = self.out
        rng = np.random.default_rng(self.seeds["noise"])
        for label, n in (("small", 125), ("large", 15625)):
            state, header = rng.standard_normal((n, 3)), {"type": "frame", "step": 1}
            buf = io.BytesIO()
            protocol.write_message(buf, header, [state])
            blob = buf.getvalue()
            out[f"serve.frame_bytes_{label}"] = len(blob)
            out[f"serve.encode_frame_us_{label}"] = 1e6 * med(
                lambda: protocol.write_message(io.BytesIO(), header, [state]), self.reps(60)
            )
            out[f"serve.decode_frame_us_{label}"] = 1e6 * med(
                lambda: protocol.read_message(io.BytesIO(blob)), self.reps(60)
            )
        mesh, config, x0 = wl.build_inputs("serve_pool_mixed", self.seeds)
        fresh = [build_full_graph(mesh) for _ in range(self.reps(7) + 1)]  # put() compiles plans once
        out["serve.cache_put_ms"] = 1e3 * med(lambda: GraphCache().put("g", [fresh.pop()]), len(fresh) - 1)
        graph = build_full_graph(mesh)
        out["serve.tile_build_ms"] = 1e3 * med(lambda: tile_local_graph(graph, 4), self.reps(7))
        asset, model, arenas = GraphCache().put("g", [graph]), MeshGNN(config), WorkerArenas()

        def batch(size):
            requests = [RolloutRequest("m", "g", x0, wl.N_STEPS) for _ in range(size)]
            return lambda: execute_batch(model, asset, requests, lambda i, step, state: None,
                                         arenas=arenas)

        b1 = med(batch(1), self.reps(10), warm=2)
        b4 = med(batch(4), self.reps(10), warm=2)
        out["serve.execute_batch_ms_b1"] = 1e3 * b1
        out["serve.execute_batch_ms_b4"] = 1e3 * b4
        out["serve.batching_efficiency"] = b4 / (4 * b1)

    # -- runtime ladder, serve under load, ensemble, cluster ----------------------------------

    def engines(self) -> None:
        out = self.out
        mesh, config, x0 = wl.build_inputs("serve_tcp", self.seeds)
        graph, model = build_full_graph(mesh), MeshGNN(config)
        n = self.reps(30)

        def call(engine, name="m"):
            return lambda: engine.rollout(RolloutRequest(name, "g", x0, wl.N_STEPS))

        direct = med(lambda: rollout(model, graph, x0, wl.N_STEPS), n, warm=2)
        out["runtime.direct_ms"] = 1e3 * direct
        pool_config = ServeConfig(n_workers=wl.TCP_SERVER["workers"],
                                  max_batch_size=wl.TCP_SERVER["max_batch"],
                                  max_wait_s=wl.TCP_SERVER["max_wait_s"])
        for scheme, kwargs in (("local", {}), ("pool", {"config": pool_config})):
            with connect(f"{scheme}://", **kwargs) as engine:
                engine.register_model("m", model)
                engine.register_graph("g", [graph])
                out[f"runtime.{scheme}_overhead_ms"] = 1e3 * (med(call(engine), n, warm=2) - direct)

        servers = [wl.ServerProcess(**wl.TCP_SERVER) for _ in range(2)]
        try:
            url = f"tcp://{servers[0].endpoint}"

            def dial():
                with connect(url) as engine:
                    engine.capabilities()

            out["runtime.connect_ms"] = 1e3 * med(dial, self.reps(7))
            with connect(url) as engine:
                wl.register_remote(engine, "m", model, "g", [graph], self.tmp)
                tcp = med(call(engine), n, warm=2)
                out["runtime.tcp_overhead_ms"] = 1e3 * (tcp - direct)
                shares = []
                for _ in range(self.reps(15)):
                    request = RolloutRequest("m", "g", x0, wl.N_STEPS)
                    t0 = time.perf_counter()
                    engine.rollout(request)
                    wall = time.perf_counter() - t0
                    spans = [s for s in engine.get_trace(request.trace_id) if s.component == "server"]
                    busy = harness.union_length((s.start_s, s.start_s + s.duration_s) for s in spans)
                    shares.append(busy / wall)
                out["serve.span_sum_share"] = statistics.median(shares)
                out["obs.trace_fetch_ms"] = 1e3 * med(
                    lambda: engine.get_trace(request.trace_id), self.reps(7)
                )
                pool = engine.pool_stats()
                out["runtime.dials"], out["runtime.reuses"] = pool.dials, pool.reuses
            endpoints = ",".join(s.endpoint for s in servers)
            with connect(f"cluster://{endpoints}") as cluster:
                wl.register_remote(cluster, "mc", model, "g", [graph], self.tmp)
                routed = med(call(cluster, "mc"), self.reps(20), warm=2)
                out["cluster.route_overhead_ms"] = 1e3 * (routed - tcp)
                stats = cluster.cluster_stats()
                out["cluster.redrives"], out["cluster.spills"] = stats.redrives, stats.spills
        finally:
            for server in servers:
                server.stop()
        ring = HashRing([s.endpoint for s in servers])
        key = placement_key("mc", "g")
        out["cluster.place_us"] = 1e6 * per_call(lambda: ring.place(key), self.reps(3000))
        self.pool_mixed()

    def pool_mixed(self) -> None:
        """``engine.stats()`` after a short multi-tenant run, then the unloaded ensemble."""
        out = self.out
        mixed = wl.ServePoolMixed(self.seed, harness.Recorder(False))
        mixed.pool_config = {**wl.POOL_CONFIG, "affinity": True}  # the library default
        mixed.setup()
        mixed.run_warmup()
        try:
            wl.timed_phase(mixed, None, self.reps(10))
            engine = mixed.engine
            stats = engine.stats()
            out["serve.mean_batch_size"] = stats.mean_batch_size
            out["serve.tile_hit_rate"] = stats.tile_hits / max(1, stats.tile_hits + stats.tile_misses)
            out["serve.queue_wait_mean_ms"] = 1e3 * stats.mean_queue_wait_s
            out["serve.arena_reallocations_per_batch"] = stats.arena_reallocations / max(1, stats.batches)
            out["serve.shed_count"] = stats.admission.shed
            out["serve.expired_count"] = stats.admission.expired + stats.admission.expired_at_close
            sched = stats.scheduler
            out["serve.sched_affinity_hit_rate"] = sched.affinity_hits / max(1, sched.dispatches)
            out["serve.stats_snapshot_ms"] = 1e3 * med(
                lambda: (engine.stats(), engine.stats_markdown()), self.reps(10)
            )
            registry = engine.metrics_registry()
            out["obs.prometheus_text_ms"] = 1e3 * med(registry.prometheus_text, self.reps(10))

            request = mixed.ensemble_request()
            spec = request.perturbation
            out["ensemble.perturb_us_per_member"] = 1e6 * med(
                lambda: perturb_member(mixed.x0, spec, 3), self.reps(30)
            )
            stack = np.stack([perturb_member(mixed.x0, spec, m) for m in range(wl.ENSEMBLE_MEMBERS)])
            out["ensemble.reduce_frame_us"] = 1e6 * med(
                lambda: reduce_frame(stack, wl.ENSEMBLE_SUMMARIES), self.reps(30)
            )
            ensemble_s = med(lambda: engine.ensemble(mixed.ensemble_request()), self.reps(5))
            out["ensemble.request_ms_m8"] = 1e3 * ensemble_s

            def serial():
                for member in range(wl.ENSEMBLE_MEMBERS):
                    engine.rollout(request.member_request(member))

            out["ensemble.tiling_speedup"] = med(serial, self.reps(3)) / ensemble_s
            buf = io.BytesIO()
            protocol.write_message(
                buf, *protocol.summary_frame_message(engine.ensemble(mixed.ensemble_request()).frames[1])
            )
            out["ensemble.summary_frame_bytes"] = len(buf.getvalue())
        finally:
            mixed.teardown()

    # -- obs -----------------------------------------------------------------------------------

    def obs(self) -> None:
        out, n = self.out, self.reps(3000)
        trace = TraceBuffer()
        out["obs.span_record_us"] = 1e6 * per_call(
            lambda: trace.record_span("t", "execute", "server", 0.0, 1e-3, batch=4), n
        )
        registry = MetricsRegistry()
        counter = registry.counter("bench_ops_total")
        out["obs.counter_inc_us"] = 1e6 * per_call(counter.inc, n)
        histogram = registry.histogram("bench_wait_seconds", bounds=(0.001, 0.01, 0.1, 1.0))
        out["obs.histogram_observe_us"] = 1e6 * per_call(lambda: histogram.observe(0.02), n)


def step_bytes(n: int, e: int, config) -> int:
    """Bytes one inference step reads and writes, computed from shapes
    (float64, every operand counted once per kernel; cache misses ignored)."""
    h, hidden_layers = config.hidden, config.n_mlp_hidden

    def mlp(rows, n_in, n_out, norm):
        dims = [n_in] + [h] * (hidden_layers + 1) + [n_out]
        words = sum(rows * i + i * o + o + rows * o for i, o in zip(dims, dims[1:]))  # GEMM + bias
        words += 2 * rows * h * (len(dims) - 2)  # ELU reads and writes each hidden activation
        return words + (4 * rows * n_out if norm else 0)  # LayerNorm: two read/write passes

    layer = e * 2 * h + e * 3 * h + mlp(e, 3 * h, h, True) + 3 * e * h  # gathers, concat, MLP, residual
    layer += 3 * e * h + n * h  # degree scaling and the segment reduction
    layer += n * 4 * h + mlp(n, 2 * h, h, True) + 3 * n * h  # concat, node MLP, residual
    words = mlp(n, config.node_in, h, True) + config.n_message_passing * layer
    return 8 * (words + mlp(n, h, config.node_out, False))

"""Cluster scaling claims, measured against real server processes.

Two assertions, both against ``tools/launch_cluster.py`` subprocess
servers (separate interpreters — separate GILs — so shard parallelism
is real, not simulated):

* **(a) horizontal throughput**: on two ``(model, graph)`` keys placed
  on different shards, a 2-server cluster clears the same request load
  in less wall time than a 1-server cluster;
* **(b) failover exactly-once**: SIGKILLing one shard mid-load, every
  accepted request still completes — exactly once, bitwise-identical
  to the survivors' trajectories — and the cluster ledger balances
  (``accepted == completed``, ``redrives >= 1``). The load carries one
  ensemble whose member chunk is streaming from the doomed shard when
  it dies: it completes too, with the summary frames the survivor
  serves for the same request afterwards, and the ``redrive`` event
  names the killed endpoint.
"""

import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from launch_cluster import ClusterHarness  # noqa: E402

from repro.cluster import ClusterEngine  # noqa: E402
from repro.ensemble import EnsembleRequest, PerturbationSpec  # noqa: E402
from repro.gnn import GNNConfig, MeshGNN, save_checkpoint  # noqa: E402
from repro.graph import build_full_graph  # noqa: E402
from repro.graph.io import save_local_graph  # noqa: E402
from repro.mesh import BoxMesh, taylor_green_velocity  # noqa: E402
from repro.runtime import RolloutRequest  # noqa: E402

BENCH_CONFIG = GNNConfig(hidden=16, n_message_passing=3, n_mlp_hidden=1,
                         seed=21)
MODEL = "bench-m"


@pytest.fixture(scope="module")
def bench_mesh():
    return BoxMesh(8, 8, 4, p=2)


@pytest.fixture(scope="module")
def x0(bench_mesh):
    return taylor_green_velocity(bench_mesh.all_positions())


@pytest.fixture(scope="module")
def bench_assets(tmp_path_factory, bench_mesh):
    """Checkpoint + two identical single-rank graph dirs (distinct keys
    let placement spread them; identical content keeps results
    comparable)."""
    root = tmp_path_factory.mktemp("cluster-bench")
    ckpt = root / "model.npz"
    save_checkpoint(MeshGNN(BENCH_CONFIG), ckpt)
    graph = build_full_graph(bench_mesh)
    gdir = root / "graph"
    gdir.mkdir()
    save_local_graph(graph, gdir / "graph_rank00000.npz")
    return ckpt, gdir


def register(engine, ckpt, gdir, keys):
    engine.register_checkpoint(MODEL, ckpt, expect_config=BENCH_CONFIG)
    for key in keys:
        engine.register_graph_dir(key, gdir)


def disjoint_keys(engine):
    """Two graph keys whose primary placements differ (searched, since
    shard ids are ephemeral ports)."""
    candidates = [f"bench-g-{i}" for i in range(64)]
    first = candidates[0]
    first_shard = engine.place(MODEL, first)
    for other in candidates[1:]:
        if engine.place(MODEL, other) != first_shard:
            return first, other
    raise AssertionError("64 candidate keys all placed on one shard")


def fire_load(engine, x0, keys, n_requests, n_steps):
    """Fire ``n_requests`` concurrent rollouts alternating over keys;
    returns (wall_s, results keyed by request index)."""
    results: list = [None] * n_requests
    barrier = threading.Barrier(n_requests + 1)

    def client(i):
        barrier.wait()
        results[i] = engine.rollout(RolloutRequest(
            model=MODEL, graph=keys[i % len(keys)], x0=x0, n_steps=n_steps,
        ))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_requests)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - started, results


class TestClusterScaling:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="horizontal scaling needs >= 2 cores: two CPU-bound "
        "server processes cannot outrun one on a single core",
    )
    def test_two_shards_outrun_one_on_disjoint_keys(self, bench_assets, x0):
        ckpt, gdir = bench_assets
        n_requests, n_steps = 8, 6
        with ClusterHarness(n_servers=2) as harness:
            with ClusterEngine.connect(",".join(harness.endpoints)) as two:
                register(two, ckpt, gdir, keys := list(disjoint_keys(two)))
                # warm both shards (model load, graph load, tiling)
                fire_load(two, x0, keys, 2, 1)
                t_two, results = fire_load(two, x0, keys, n_requests, n_steps)
                assert all(r is not None and r.n_steps == n_steps
                           for r in results)
                routed = {s.shard_id: s.routed
                          for s in two.cluster_stats().shards}
                assert all(v > 0 for v in routed.values()), routed

            with ClusterEngine.connect(harness.endpoints[0]) as one:
                # same assets already broadcast to shard 0; warm its
                # copy of the second key too
                fire_load(one, x0, keys, 2, 1)
                t_one, results = fire_load(one, x0, keys, n_requests, n_steps)
                assert all(r is not None for r in results)

        speedup = t_one / t_two
        print(f"\ncluster scaling: 1-shard {t_one:.2f}s, "
              f"2-shard {t_two:.2f}s, speedup {speedup:.2f}x "
              f"({n_requests} requests x {n_steps} steps, "
              f"routed split {routed})")
        assert t_two < t_one, (
            f"2-shard cluster ({t_two:.2f}s) must outrun "
            f"1-shard ({t_one:.2f}s) on disjoint keys"
        )

    def test_shard_kill_mid_load_completes_every_accepted_request(
        self, bench_assets, x0
    ):
        ckpt, gdir = bench_assets
        n_requests, n_steps = 12, 30
        with ClusterHarness(n_servers=2) as harness:
            with ClusterEngine.connect(
                ",".join(harness.endpoints), spill_threshold=64,
            ) as engine:
                register(engine, ckpt, gdir, keys := list(disjoint_keys(engine)))
                fire_load(engine, x0, keys, 2, 1)  # warm both shards
                ledger_before = engine.cluster_stats()

                doomed = engine.place(MODEL, keys[0])
                doomed_index = harness.endpoints.index(doomed)
                survivor = next(s for s in engine.shard_ids if s != doomed)

                def ensemble_request():
                    return EnsembleRequest(
                        model=MODEL, graph=keys[0], x0=x0, n_steps=n_steps,
                        n_members=4,
                        perturbation=PerturbationSpec(seed=7, noise_scale=1e-3),
                    )

                # one ensemble rides the load, its single member chunk
                # pinned to the doomed shard (the survivor is drained
                # for just this submission) and mid-stream at the kill:
                # the consumer holds frame 0, the rest is still to come
                engine.drain(survivor)
                ensemble = engine.submit(ensemble_req := ensemble_request())
                engine.undrain(survivor)
                first = next(ensemble.frames(timeout=120.0))
                results: list = [None] * n_requests
                errors: list = []

                def client(i):
                    try:
                        results[i] = engine.rollout(RolloutRequest(
                            model=MODEL, graph=keys[i % 2], x0=x0,
                            n_steps=n_steps,
                        ))
                    except BaseException as exc:  # noqa: BLE001
                        errors.append((i, exc))

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(n_requests)]
                for t in threads:
                    t.start()
                # kill once the load is genuinely mid-flight: some
                # requests done, others still streaming
                deadline = time.monotonic() + 60.0
                while (sum(r is not None for r in results) < 2
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                in_flight = sum(r is None for r in results)
                harness.kill(doomed_index)
                for t in threads:
                    t.join(timeout=120.0)

                assert not errors, errors
                assert all(r is not None and r.n_steps == n_steps
                           for r in results)
                ensemble_result = ensemble.result(timeout=120.0)
                stats = engine.cluster_stats()
                accepted = stats.accepted - ledger_before.accepted
                completed = stats.completed - ledger_before.completed
                failed = stats.failed - ledger_before.failed
                print(f"\nfailover: killed {doomed} with {in_flight} "
                      f"requests outstanding; accepted={accepted} "
                      f"completed={completed} failed={failed} "
                      f"redrives={stats.redrives}")
                # exactly-once: every accepted request resolved, once
                assert accepted == n_requests + 1  # the rollouts + the ensemble
                assert completed == n_requests + 1
                assert failed == 0
                assert stats.redrives >= 1, (
                    "the kill landed after all work drained; load was "
                    "not mid-flight"
                )
                # the killed shard is typed DOWN; survivors keep serving
                assert engine.shard_states()[doomed].value == "down"
                # redriven trajectories are bitwise identical to the
                # survivor-computed ones (same key, same x0)
                by_key: dict = {}
                for i, result in enumerate(results):
                    by_key.setdefault(keys[i % 2], []).append(result)
                for key, group in by_key.items():
                    reference = group[0].states
                    for other in group[1:]:
                        for a, b in zip(reference, other.states):
                            assert np.array_equal(
                                a.view(np.uint64), b.view(np.uint64)
                            ), f"divergent trajectory on {key}"
                # the ensemble's chunk was redriven off the killed shard
                # (the event log says so by name) and delivered every
                # step once, bitwise what the survivor serves for the
                # same request now
                redrives = engine.events("redrive")
                assert {e.attrs["source"] for e in redrives} == {doomed}
                (moved,) = [e for e in redrives
                            if e.attrs["trace_id"] == ensemble_req.trace_id]
                assert moved.attrs["target"] == survivor
                assert moved.attrs["frames"] >= 1
                assert ensemble_result.frames[0] is first
                assert ensemble_result.n_frames == n_steps + 1
                replay = engine.ensemble(ensemble_request())
                for got, ref in zip(ensemble_result.frames, replay.frames):
                    assert got.step == ref.step
                    for name, summary in ref.summaries.items():
                        assert got.summaries[name].tobytes() == (
                            summary.tobytes()
                        ), f"ensemble {name!r} diverged at step {got.step}"
                    assert got.energy.tobytes() == ref.energy.tobytes()
                    assert np.float64(got.divergence).tobytes() == (
                        np.float64(ref.divergence).tobytes()
                    )

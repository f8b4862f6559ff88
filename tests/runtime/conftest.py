"""Shared fixtures for the runtime (engine API) tests.

Every engine sees the *same* assets: one checkpointed model and two
partitioned-graph directories (1-rank and 4-rank) saved once per
session, so registrations are path-backed and therefore identical
across local, pooled, and remote engines.
"""

import contextlib

import pytest

from repro.gnn import GNNConfig, MeshGNN, save_checkpoint
from repro.graph import build_distributed_graph, build_full_graph
from repro.graph.io import save_distributed_graph, save_local_graph
from repro.mesh import BoxMesh, auto_partition, taylor_green_velocity
from repro.runtime import connect
from repro.serve import InferenceService, ServeConfig, ServeServer

ENGINE_CONFIG = GNNConfig(hidden=6, n_message_passing=2, n_mlp_hidden=1, seed=11)
ENGINE_KINDS = ("local", "pool", "tcp", "cluster")


@pytest.fixture(scope="session")
def engine_mesh():
    return BoxMesh(4, 4, 2, p=1)


@pytest.fixture(scope="session")
def full_graph(engine_mesh):
    return build_full_graph(engine_mesh)


@pytest.fixture(scope="session")
def dist_graph(engine_mesh):
    return build_distributed_graph(engine_mesh, auto_partition(engine_mesh, 4))


@pytest.fixture(scope="session")
def engine_model():
    return MeshGNN(ENGINE_CONFIG)


@pytest.fixture(scope="session")
def x0(engine_mesh):
    return taylor_green_velocity(engine_mesh.all_positions())


@pytest.fixture(scope="session")
def asset_paths(tmp_path_factory, engine_model, full_graph, dist_graph):
    """(checkpoint, 1-rank graph dir, 4-rank graph dir) on disk."""
    root = tmp_path_factory.mktemp("engine-assets")
    ckpt = root / "model.npz"
    save_checkpoint(engine_model, ckpt)
    g1_dir = root / "graphs-r1"
    g1_dir.mkdir()
    save_local_graph(full_graph, g1_dir / "graph_rank00000.npz")
    g4_dir = root / "graphs-r4"
    save_distributed_graph(dist_graph, g4_dir)
    return ckpt, g1_dir, g4_dir


@contextlib.contextmanager
def make_engine(kind, asset_paths, serve_config=None):
    """Stand one engine up with the shared assets registered.

    ``tcp`` engines get a private in-process service + socket server
    (the engine itself only ever sees the wire); ``cluster`` engines
    get TWO of those and route across them. All registrations are
    path-backed so the engines are exact peers.
    """
    ckpt, g1_dir, g4_dir = asset_paths
    config = serve_config or ServeConfig(max_batch_size=4, max_wait_s=0.0)
    if kind == "local":
        with connect("local://") as engine:
            _register(engine, ckpt, g1_dir, g4_dir)
            yield engine
    elif kind == "pool":
        with connect("pool://", config=config) as engine:
            _register(engine, ckpt, g1_dir, g4_dir)
            yield engine
    elif kind == "tcp":
        with connect("pool://", config=config) as backend, \
                ServeServer(backend.service) as server:
            with connect(f"tcp://{server.endpoint}") as engine:
                _register(engine, ckpt, g1_dir, g4_dir)
                yield engine
    elif kind == "cluster":
        with contextlib.ExitStack() as stack:
            endpoints = []
            for _ in range(2):
                backend = stack.enter_context(
                    connect("pool://", config=config)
                )
                server = stack.enter_context(ServeServer(backend.service))
                endpoints.append(server.endpoint)
            engine = stack.enter_context(
                connect("cluster://" + ",".join(endpoints))
            )
            _register(engine, ckpt, g1_dir, g4_dir)
            yield engine
    elif kind == "service":
        # not an engine: the in-process service itself, whose submit()
        # hands out the same future types the engines do
        with InferenceService(config) as service:
            _register(service, ckpt, g1_dir, g4_dir)
            yield service
    else:  # pragma: no cover - fixture misuse
        raise ValueError(f"unknown engine kind {kind!r}")


def _register(engine, ckpt, g1_dir, g4_dir):
    engine.register_checkpoint("m", ckpt, expect_config=ENGINE_CONFIG)
    engine.register_graph_dir("g1", g1_dir)
    engine.register_graph_dir("g4", g4_dir)


@pytest.fixture(params=ENGINE_KINDS)
def any_engine(request, asset_paths):
    """One engine per parametrization, assets registered."""
    with make_engine(request.param, asset_paths) as engine:
        yield engine


@pytest.fixture(params=ENGINE_KINDS + ("service",))
def any_front_door(request, asset_paths):
    """Everything with a ``submit(request)``: each engine, and the
    in-process service the in-process engines hand their futures from."""
    with make_engine(request.param, asset_paths) as front_door:
        yield front_door

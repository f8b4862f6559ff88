"""Scripted in-process backends for cluster routing/failover tests.

The :class:`ScriptedEngine` implements just enough of the Engine
protocol to exercise the cluster layer deterministically — frames are
synthesized (``step``-valued arrays), and failure injection flags
simulate a shard dying at submit time, mid-stream, or reporting a
server-side error, without any sockets.
"""

from typing import Iterator

import numpy as np
import pytest

from repro.runtime.api import (
    Engine,
    EngineCapabilities,
    RolloutFuture,
    RolloutRequest,
    StepFrame,
    TrainFuture,
    TrainRequest,
    TrainResult,
)
from repro.obs.registry import MetricsRegistry
from repro.serve.transport import TransportError


def frame_value(step: int) -> np.ndarray:
    """The synthetic frame a scripted rollout emits for ``step``."""
    return np.full((4, 3), float(step))


class ScriptedRolloutFuture(RolloutFuture):
    def __init__(self, engine: "ScriptedEngine", request: RolloutRequest):
        super().__init__(request)
        self._engine = engine
        self._finished = False

    def _frames(self, timeout) -> Iterator[StepFrame]:
        try:
            for step in range(self.request.n_steps + 1):
                if (
                    self._engine.fail_after_frames is not None
                    and step >= self._engine.fail_after_frames
                ):
                    self._engine.fail_after_frames = None  # fail once
                    raise TransportError(
                        f"{self._engine.name}: stream broke mid-rollout"
                    )
                if self._engine.stream_error is not None:
                    error, self._engine.stream_error = (
                        self._engine.stream_error, None
                    )
                    raise error
                gate = self._engine.frame_gate
                if gate is not None:
                    gate.wait(timeout=10.0)
                state = frame_value(step)
                self._collected.append(state)
                yield StepFrame(step, state)
        finally:
            self._finished = True

    @property
    def done(self) -> bool:
        return self._finished


class ScriptedTrainFuture(TrainFuture):
    def __init__(self, request: TrainRequest, result: TrainResult):
        super().__init__(request)
        self._result = result

    def result(self, timeout=None) -> TrainResult:
        return self._result

    @property
    def done(self) -> bool:
        return True


class ScriptedEngine(Engine):
    """A deterministic fake shard backend with failure injection."""

    def __init__(
        self,
        name: str,
        training: bool = True,
        in_memory_assets: bool = True,
        graph_upload: bool = True,
        float32: bool = True,
    ):
        self.name = name
        self.training = training
        self.in_memory_assets = in_memory_assets
        self.graph_upload = graph_upload
        self.float32 = float32
        #: raise TransportError on the next ping/probe when True
        self.dead = False
        #: raise TransportError on the next N submissions
        self.fail_submissions = 0
        #: the next stream dies after yielding this many frames (once)
        self.fail_after_frames: int | None = None
        #: an exception the next stream raises immediately (once)
        self.stream_error: BaseException | None = None
        #: when set, streams block on this event before each frame
        self.frame_gate = None
        self.submitted: list = []
        self.registered_models: dict = {}
        self.registered_graphs: dict = {}
        self.pings = 0

    # -- protocol ------------------------------------------------------------

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            transport="scripted", training=self.training,
            streaming=True, in_memory_assets=self.in_memory_assets,
            graph_upload=self.graph_upload, float32=self.float32,
        )

    def ping(self) -> None:
        self.pings += 1
        if self.dead:
            raise TransportError(f"{self.name}: unreachable")

    def close(self) -> None:
        pass

    def register_model(self, name, model) -> None:
        self.registered_models[name] = model

    def register_checkpoint(self, name, path, expect_config=None,
                            eager=False) -> None:
        if self.dead:
            raise TransportError(f"{self.name}: unreachable")
        self.registered_models[name] = str(path)

    def register_graph(self, key, graphs) -> None:
        self.registered_graphs[key] = list(graphs)

    def register_graph_dir(self, key, directory) -> None:
        self.registered_graphs[key] = str(directory)

    def model_names(self) -> list:
        if self.dead:
            raise TransportError(f"{self.name}: unreachable")
        return sorted(self.registered_models)

    def graph_keys(self) -> list:
        if self.dead:
            raise TransportError(f"{self.name}: unreachable")
        return sorted(self.registered_graphs)

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        if self.dead or self.fail_submissions > 0:
            if self.fail_submissions > 0:
                self.fail_submissions -= 1
            raise TransportError(f"{self.name}: cannot submit")
        self.submitted.append(request)
        return ScriptedRolloutFuture(self, request)

    def _submit_train(self, request: TrainRequest) -> TrainFuture:
        self.submitted.append(request)
        return ScriptedTrainFuture(
            request,
            TrainResult(request_id=request.request_id, losses=[0.5],
                        state_dict={}, world_size=1,
                        batch_size=request.n_samples, train_s=0.001),
        )

    def metrics_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_requests_total").inc(len(self.submitted))
        return registry


@pytest.fixture()
def shards():
    """Two scripted shards named a/b (no health monitor by default)."""
    return {"shard-a": ScriptedEngine("shard-a"),
            "shard-b": ScriptedEngine("shard-b")}


@pytest.fixture()
def cluster(shards):
    from repro.cluster import ClusterEngine

    engine = ClusterEngine(shards, health_interval_s=None)
    yield engine
    engine.close()

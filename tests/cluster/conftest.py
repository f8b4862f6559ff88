"""Scripted in-process backends for cluster routing/failover tests.

The :class:`ScriptedEngine` implements just enough of the Engine
protocol to exercise the cluster layer deterministically — frames are
synthesized (arrays that are functions of ``step``, and of the member
for ensemble chunks), and failure injection flags simulate a shard
dying at submit time, mid-stream, or reporting a server-side error,
without any sockets. Rollouts and ensemble chunks share the one
injection script (:func:`scripted_steps`).
"""

from typing import Iterator

import numpy as np
import pytest

from repro.ensemble.api import EnsembleFuture, EnsembleRequest, SummaryFrame
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


def member_value(member: int, step: int) -> np.ndarray:
    """The synthetic state of ensemble member ``member`` at ``step``."""
    return np.full((4, 3), 0.5 * (member + 1) + step)


def delivered(result) -> list:
    """Every array a rollout / ensemble result delivered, as bytes, frame
    by frame (what "bitwise equal to the fault-free run" compares)."""
    if hasattr(result, "states"):
        return [s.tobytes() for s in result.states]
    return [
        [m.tobytes() for m in f.members]
        + [f.summaries[k].tobytes() for k in sorted(f.summaries)]
        + [f.energy.tobytes(), np.float64(f.divergence).tobytes()]
        for f in result.frames
    ]


def scripted_steps(engine: "ScriptedEngine", n_steps: int) -> Iterator[int]:
    """Steps ``0..n_steps`` of one scripted stream, with the engine's
    failure injection applied before each."""
    for step in range(n_steps + 1):
        if (
            engine.fail_after_frames is not None
            and step >= engine.fail_after_frames
        ):
            engine.fail_after_frames = None  # fail once
            raise TransportError(f"{engine.name}: stream broke mid-rollout")
        if engine.stream_error is not None:
            error, engine.stream_error = engine.stream_error, None
            raise error
        gate = engine.frame_gate
        if gate is not None:
            gate.wait(timeout=10.0)
        yield step


class _ScriptedStream:
    """Shared life-cycle of the scripted stream futures: ``done`` once
    the frame generator ended (exhausted, failed or closed); ``closed``
    records that it ended before its last frame."""

    def __init__(self, engine: "ScriptedEngine", request):
        super().__init__(request)
        self._engine = engine
        self._finished = False
        self.closed = False

    def _frames(self, timeout) -> Iterator:
        try:
            for step in scripted_steps(self._engine, self.request.n_steps):
                yield self._frame(step)
        except GeneratorExit:
            self.closed = True
            raise
        finally:
            self._finished = True

    @property
    def done(self) -> bool:
        return self._finished


class ScriptedRolloutFuture(_ScriptedStream, RolloutFuture):
    def _frame(self, step: int) -> StepFrame:
        state = frame_value(step)
        self._collected.append(state)
        return StepFrame(step, state)


class ScriptedEnsembleFuture(_ScriptedStream, EnsembleFuture):
    """A chunk stream: raw member states, no reduction (the router's)."""

    def _frame(self, step: int) -> SummaryFrame:
        members = self.request.members
        frame = SummaryFrame(
            step=step, n_members=len(members), summaries={},
            energy=np.zeros(3), divergence=0.0,
            members=tuple(member_value(m, step) for m in members),
        )
        self._collected.append(frame)
        return frame


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
    ):
        self.name = name
        #: every stream future handed out, in submission order
        self.streams: list = []
        self.caps = EngineCapabilities(
            transport="scripted", training=training,
            in_memory_assets=in_memory_assets,
        )
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
        return self.caps

    def ping(self) -> None:
        self.pings += 1
        if self.dead:
            raise TransportError(f"{self.name}: unreachable")

    def close(self) -> None:
        pass

    def register_model(self, name, model) -> None:
        self.registered_models[name] = model

    def register_checkpoint(self, name, path, expect_config=None) -> None:
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

    def _submit_stream(self, future_type, request):
        if self.dead or self.fail_submissions > 0:
            if self.fail_submissions > 0:
                self.fail_submissions -= 1
            raise TransportError(f"{self.name}: cannot submit")
        self.submitted.append(request)
        self.streams.append(future_type(self, request))
        return self.streams[-1]

    def _submit_rollout(self, request: RolloutRequest) -> RolloutFuture:
        return self._submit_stream(ScriptedRolloutFuture, request)

    def _submit_ensemble(self, request: EnsembleRequest) -> EnsembleFuture:
        return self._submit_stream(ScriptedEnsembleFuture, request)

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

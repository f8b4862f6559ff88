"""The engine-agnostic lockstep reduction driver.

Every engine kind executes an ensemble the same way: M member rollouts
produce frame streams, and *something* must walk those streams in
lockstep — one step at a time across all members — reducing each step
into a :class:`~repro.ensemble.api.SummaryFrame` and feeding the
stability tracker. That something is :class:`SummaryStream`. Engines
differ only in where the member frames come from:

* **local / pooled** — live :class:`~repro.serve.batching.RolloutHandle`
  streams (:class:`EnsembleHandle`, the service's ensemble future,
  drives them);
* **remote** — the server runs the driver and streams the already-
  reduced frames, so the client never drives;
* **cluster** — the router drives over *chunk* streams, each yielding
  several members per step (:class:`MemberStream` carries the index
  tuple for exactly this reason).

Lockstep consumption cannot deadlock: producers (batched executors,
service handles) buffer completed frames and never wait on the
consumer, so draining streams round-robin one step at a time is safe.
Early-stop truncates *consumption* — already-dispatched member compute
is not cancelled (an accepted cost; the stream, the wire, and the
result all end at the tripping step). Aborted streams get their
``abort`` hook invoked so transports can discard a mid-stream
connection instead of leaking it.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.ensemble.api import EnsembleFuture, EnsembleRequest, SummaryFrame
from repro.ensemble.reduce import ReducerState, reduce_frame
from repro.ensemble.stability import StabilityTracker
from repro.obs.trace import wall_from_perf

__all__ = ["EnsembleHandle", "MemberStream", "SummaryStream", "member_stream"]


class MemberStream:
    """One source of member states: an iterator of per-step state lists.

    ``indices`` names the (absolute) members this stream carries;
    each ``next()`` yields their states for one step, in ``indices``
    order. A single-member stream wraps one rollout; a chunk stream
    from a shard carries that shard's whole member slice per step.
    ``abort`` is called if the driver stops consuming early (blow-up
    early-stop or a failed sibling stream).
    """

    def __init__(
        self,
        indices: Iterable[int],
        frames: Iterable,
        abort: Callable[[], None] | None = None,
    ):
        self.indices = tuple(int(i) for i in indices)
        if not self.indices:
            raise ValueError("a member stream must carry >= 1 member")
        self.frames = iter(frames)
        self._abort = abort

    def abort(self) -> None:
        if self._abort is not None:
            self._abort()


def member_stream(
    index: int,
    frames: Iterable[np.ndarray],
    abort: Callable[[], None] | None = None,
) -> MemberStream:
    """Adapt a single member's per-step state iterator (one array each)."""
    return MemberStream((index,), ([f] for f in frames), abort=abort)


class SummaryStream:
    """Walk member streams in lockstep, reducing each step (see module doc).

    ``request`` scopes the reduction: for a chunk sub-request the
    expected members are the chunk's slice and ``n_members`` on each
    frame is the chunk size — the router re-reduces over the full
    ensemble. After the stream is exhausted, ``report`` holds the
    :class:`~repro.ensemble.stability.StabilityReport` and
    ``on_outcome`` (if given) has been called once with
    ``(blew_up, early_stopped)`` — the hook metrics counters hang off.
    ``trace`` (a :class:`~repro.obs.trace.TraceBuffer`) gets one
    aggregate ``reduce`` span covering the whole stream.
    """

    def __init__(
        self,
        request: EnsembleRequest,
        streams: "list[MemberStream]",
        trace=None,
        component: str = "ensemble",
        on_outcome: Callable[[bool, bool], None] | None = None,
    ):
        self.request = request
        self.streams = list(streams)
        self.report = None
        self._trace = trace
        self._component = component
        self._on_outcome = on_outcome
        expected = list(request.members)
        covered = sorted(i for s in self.streams for i in s.indices)
        if covered != expected:
            raise ValueError(
                f"member streams cover {covered}, request expects {expected}"
            )
        #: absolute member index -> position in the reduced stack
        self._order = {m: i for i, m in enumerate(expected)}

    def frames(self) -> Iterator[SummaryFrame]:
        """The one-shot lockstep generator of reduced frames."""
        req = self.request
        n = len(self._order)
        tracker = StabilityTracker(req.stability, n)
        started = time.perf_counter()
        reduce_s = 0.0
        stopped_early = False
        try:
            for step in range(req.n_steps + 1):
                state = ReducerState(n)
                raw: list = [None] * n
                for stream in self.streams:
                    try:
                        states = next(stream.frames)
                    except StopIteration:
                        raise RuntimeError(
                            f"member stream {stream.indices} ended at step "
                            f"{step} of {req.n_steps}"
                        ) from None
                    if len(states) != len(stream.indices):
                        raise RuntimeError(
                            f"member stream {stream.indices} yielded "
                            f"{len(states)} states for one step"
                        )
                    for m, s in zip(stream.indices, states):
                        pos = self._order[m]
                        state.update(pos, s)
                        raw[pos] = s
                t0 = time.perf_counter()
                values = state.values()
                summaries, energies, esum, div = reduce_frame(
                    values, req.summaries, req.quantiles
                )
                reduce_s += time.perf_counter() - t0
                blow = tracker.observe(step, values, energies, esum, div)
                yield SummaryFrame(
                    step=step, n_members=n, summaries=summaries,
                    energy=esum, divergence=div,
                    members=tuple(raw) if req.return_members else (),
                )
                if (
                    blow is not None
                    and req.stability is not None
                    and req.stability.early_stop
                ):
                    tracker.note_early_stop()
                    stopped_early = True
                    break
        except BaseException:
            self._abort_streams()
            raise
        if stopped_early:
            self._abort_streams()
        self.report = tracker.report()
        if self._trace is not None:
            self._trace.record_span(
                req.trace_id, "reduce", self._component,
                wall_from_perf(started), reduce_s,
                members=n, frames=self.report.n_frames,
                summaries=",".join(req.summaries),
            )
        if self._on_outcome is not None:
            self._on_outcome(tracker.blow_up is not None, stopped_early)

    def _abort_streams(self) -> None:
        for stream in self.streams:
            try:
                stream.abort()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass


class EnsembleHandle(EnsembleFuture):
    """The service's in-flight ensemble: member rollout handles, reduced.

    Built by :meth:`~repro.serve.service.InferenceService.submit` over
    the M member :class:`~repro.serve.batching.RolloutHandle`\\ s the
    scheduler is tiling, and handed out as the engine's
    :class:`~repro.ensemble.api.EnsembleFuture` directly. The lockstep
    driver runs in the consumer's thread (handles buffer, so lockstep
    never blocks a worker), so summaries stream as member batches
    complete and overlap with later steps' compute; ``stability`` and
    ``metrics`` are set once the stream ends. ``timeout_s`` is the
    default per-frame wait (the service's ``request_timeout_s``).
    """

    def __init__(
        self,
        request: EnsembleRequest,
        handles: list,
        timeout_s: float = 60.0,
        trace=None,
        on_outcome: Callable[[bool, bool], None] | None = None,
    ):
        super().__init__(request)
        self.handles = list(handles)
        self._timeout_s = timeout_s
        self._trace = trace
        self._on_outcome = on_outcome

    def _frames(self, timeout: float | None) -> Iterator[SummaryFrame]:
        t = self._timeout_s if timeout is None else timeout
        member_frames = [h.frames(timeout=t) for h in self.handles]
        stream = SummaryStream(
            self.request,
            [
                member_stream(m, (f.state for f in frames))
                for m, frames in zip(self.request.members, member_frames)
            ],
            trace=self._trace, component="server",
            on_outcome=self._on_outcome,
        )
        for frame in stream.frames():
            self._collected.append(frame)
            yield frame
        if not stream.report.early_stopped:
            # the driver read every frame but not the members' end of
            # stream: run them out, so their metrics are final and no
            # suspended iterator keeps its handle in a reference cycle
            for frames in member_frames:
                for _ in frames:
                    pass
        self.stability = stream.report
        self.metrics = self._member_metrics()

    def _member_metrics(self) -> dict:
        per = [h.metrics for h in self.handles if h.metrics is not None]
        out = {"members": len(self.handles)}
        if per:
            out.update(
                batch_sizes=max(m.batch_size for m in per),
                mean_queue_wait_s=sum(m.queue_wait_s for m in per) / len(per),
                mean_latency_s=sum(m.latency_s for m in per) / len(per),
                max_latency_s=max(m.latency_s for m in per),
            )
        return out

    @property
    def done(self) -> bool:
        return all(h.done for h in self.handles)

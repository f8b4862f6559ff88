"""Shared plumbing of the end-to-end benchmark: pinned environment,
seeded inputs, percentiles, resource probes and the span recorder.

Nothing here imports ``numpy`` or ``repro`` at module level: the parent
(``run.py``) must stay import-light, and a worker has to pin the BLAS
thread count *before* numpy is first imported.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: BLAS pools pinned to one thread: the box has two cores, and a BLAS
#: that grabs both would hide every scheduling effect the serving
#: workloads exist to show.
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Per-layer counts that must repeat exactly between two runs of one
#: seed (``selftest.py`` holds them to that).
EXACT_COUNTS = (
    "mesh.partition_imbalance",
    "graph.halo_node_fraction_r2",
    "graph.halo_node_fraction_r4",
    "graph.halo_node_fraction_r8",
    "tensor.step_bytes_computed",
    "tensor.arena_reallocations_steady",
    "comm.bytes_per_iter_r2",
    "comm.messages_per_iter_r2",
    "comm.calls_per_iter_r2",
    "comm.bytes_per_iter_r4",
    "comm.messages_per_iter_r4",
    "comm.calls_per_iter_r4",
    "comm.a2a_over_na2a_bytes_r4",
    "serve.frame_bytes_small",
    "serve.frame_bytes_large",
    "ensemble.summary_frame_bytes",
    "runtime.dials",
    "runtime.reuses",
    "cluster.redrives",
    "cluster.spills",
)

#: One malloc arena. glibc otherwise hands every new thread one of up to 8 x cores arenas, and
#: which freed blocks each arena then sits on is decided by thread timing: ``train_r2`` (two new rank
#: threads per op) peaked anywhere from 273 to 509 MiB between processes of one commit, against
#: 217-218 MiB with one arena, at the same speed. Read by glibc at process start, so it is set
#: for the interpreters the benchmark spawns (``child_env``), not inside them.
ALLOCATOR_ENV = {"MALLOC_ARENA_MAX": "1"}


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.update(ALLOCATOR_ENV)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- statistics ----------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``samples``."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: A process's timed phase is this many blocks, each a host-speed calibration and then the
#: closed loop for its share of the seconds: three processes of 24 / 3 s give 9 blocks of
#: 0.25 + 2.4 s, 12 or more ops in each on this sandbox.
BLOCKS_PER_PROCESS = 3
CALIBRATION_S = 0.25
#: One iteration of the calibration kernel on this sandbox while its host is quiet. The time
#: metrics are reported as ``measured x CALIBRATION_REFERENCE_MS / calibration_ms``, so they read
#: as measured on a quiet host and the host's slow hours do not read as the program's.
CALIBRATION_REFERENCE_MS = 7.7


def calibration_kernel():
    """One iteration of a fixed stand-in for the program's kind of work, independent of ``src/``:
    two gathers over 12,000 edges, two GEMMs, a row normalisation, a segment sum and a short
    interpreter loop, on the sizes ``rollout_r1`` works on (``block_stats`` says what it is for).
    Every large array is allocated here, once: the time of an iteration must not depend on what
    the program under test has done to the allocator, nor change what the program finds there.
    ``kernel.resident_bytes`` is what those arrays add to the process's resident set from now on."""
    import numpy as np

    rng = np.random.default_rng(0)
    nodes, edges, width = 1089, 12000, 32
    x = rng.standard_normal((nodes, width))
    src = rng.integers(0, nodes, edges)
    dst = np.sort(rng.integers(0, nodes, edges))
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    a = rng.standard_normal((edges, 2 * width))
    w1 = rng.standard_normal((2 * width, width)) / 8
    w2 = rng.standard_normal((width, width)) / 6
    from_src, from_dst, hidden, e, squares = (np.empty((edges, width)) for _ in range(5))
    mean, deviation = np.empty((edges, 1)), np.empty((edges, 1))
    summed = np.empty((len(starts), width))
    arrays = (x, a, from_src, from_dst, hidden, e, squares, mean, deviation, summed)

    def kernel():
        np.take(x, src, axis=0, out=from_src, mode="clip")
        np.take(x, dst, axis=0, out=from_dst, mode="clip")
        np.matmul(a, w1, out=hidden)
        np.matmul(hidden, w2, out=e)
        np.maximum(e, 0, out=e)
        np.mean(e, axis=1, keepdims=True, out=mean)
        np.subtract(e, mean, out=e)
        np.multiply(e, e, out=squares)
        np.mean(squares, axis=1, keepdims=True, out=deviation)
        np.sqrt(deviation, out=deviation)
        np.add(deviation, 1e-5, out=deviation)
        np.divide(e, deviation, out=e)
        np.add.reduceat(e, starts, axis=0, out=summed)
        total = 0
        for i in range(20000):
            total += i * i
        return total

    for _ in range(5):  # touches every page, warms the caches
        kernel()
    kernel.resident_bytes = sum(array.nbytes for array in arrays)
    return kernel


def calibrate(kernel, seconds: float = CALIBRATION_S) -> float:
    """Median time of one ``kernel()`` in ms, over ``seconds`` of back-to-back calls."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return 1e3 * percentile(times, 0.5)


def block_stats(phase: dict, cpu_s: float, calibration_ms: float) -> dict:
    """One block measured on its own: the latency percentiles, ops per second and CPU per op
    of a ``workloads.timed_phase``, and the calibration taken just before it.

    The box is a few cores of a shared host, and the host has moods. For seconds at a time a
    neighbour slows every op by tens of percent, and it only ever slows them: such a burst
    spoils the blocks it hits, so ``run.py`` reports what the best quarter of a run's blocks
    reach, which still reads the program when over half of the run was disturbed, where a
    pooled p90 or a whole-run mean (kept as diagnostics) reads the neighbour. And for minutes
    to hours the whole guest runs up to 1.5 times slower (CPU time rises with wall time, the
    guest sees no steal; ``train_r2`` read 155 ms in one ten-run set and 253 ms in another of
    the same tree an hour later). No statistic of a 25 s run sees through that, but the
    calibration kernel slows down with the program, so ``run.py`` scales the time metrics by
    the best-quartile calibration of the same run.
    """
    latencies_ms = [1e3 * s for s in phase["latencies_s"]]
    return {
        "ops": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 0.5),
        "p90_ms": percentile(latencies_ms, 0.9),
        "ops_per_s": len(latencies_ms) / phase["wall_s"],
        "cpu_ms_per_op": 1e3 * cpu_s / len(latencies_ms),
        "calibration_ms": calibration_ms,
    }


# -- seeded inputs ---------------------------------------------------------------


def derive_seeds(seed: int) -> dict:
    """Every random choice of a run, derived from the one ``--seed``."""
    import numpy as np

    model, noise, order, perturb = np.random.SeedSequence(seed).generate_state(4)
    return {"model": int(model), "noise": int(noise), "order": int(order), "perturb": int(perturb)}


def noisy_taylor_green(pos, noise_seed: int):
    """Taylor-Green velocity plus a seeded 1e-3 perturbation."""
    import numpy as np

    from repro.mesh import taylor_green_velocity

    x0 = taylor_green_velocity(pos)
    return x0 + 1e-3 * np.random.default_rng(noise_seed).standard_normal(x0.shape)


def mixed_schedule(order_seed: int, clients: int, rounds: int, keys: int):
    """Per-client, per-round submission order of the ``keys`` rollouts."""
    import numpy as np

    rng = np.random.default_rng(order_seed)
    return np.stack([
        np.stack([rng.permutation(keys) for _ in range(rounds)]) for _ in range(clients)
    ])


def bitwise_equal(a, b) -> bool:
    """Two trajectories (lists of arrays) agree in dtype, shape and bits."""
    import numpy as np

    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


def max_rel_err(a, b) -> float:
    import numpy as np

    scale = max(float(np.max(np.abs(y))) for y in b) or 1.0
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b)) / scale


# -- resources -------------------------------------------------------------------


def self_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def pid_cpu_s(pid: int) -> float:
    """CPU seconds of a live child, from ``/proc`` (it is not reaped yet)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(include_children: bool, not_the_programs_bytes: int = 0) -> float:
    """Peak resident set, less the bytes the harness itself kept resident all along."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - not_the_programs_bytes / 1024.0
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def open_sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return count


def assert_no_leaks(sockets_at_start: int, wait_s: float = 5.0) -> None:
    """Every thread and socket the run created is gone (bounded wait)."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if threading.active_count() == 1 and open_sockets() <= sockets_at_start:
            return
        time.sleep(0.02)
    extra = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    raise AssertionError(
        f"leak at exit: threads {extra}, sockets {open_sockets()} (started with {sockets_at_start})"
    )


def hygiene() -> dict:
    """Noise context stamped into every result document."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "nproc": nproc(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "allocator_env": {k: os.environ.get(k) for k in ALLOCATOR_ENV},
    }


# -- spans -----------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    covered, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > max(start, edge):
            covered += end - max(start, edge)
            edge = end
    return covered


class Recorder:
    """In-memory span recorder of the traced run.

    A span is ``(id, name, layer, start_s, end_s, parent, op)``; spans
    of one op share ``op``. Disabled (the untraced run) ``span()``
    hands back one shared no-op context, so the timed loop pays an
    attribute read and a call.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._lock = threading.Lock()
        self._stack = threading.local()
        if enabled:  # the program's spans carry wall-clock starts: record on the same timebase
            from repro.obs.trace import wall_from_perf

            self.clock = lambda: wall_from_perf(time.perf_counter())

    def span(self, name: str, layer: str, op=None, parent=None):
        """Time a block. ``parent`` (a ``current()`` of the causing span) is
        for blocks that run on another thread than their cause (rank
        threads); otherwise this thread's enclosing span is the parent."""
        return self._span(name, layer, op, parent) if self.enabled else self._NULL

    @contextlib.contextmanager
    def _span(self, name, layer, op, parent):
        stack = self._stack.__dict__.setdefault("open", [])
        parent, parent_op = stack[-1] if stack else (parent or (None, None))
        if op is None:
            op = parent_op
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append((sid, op))
        start = self.clock()
        try:
            yield sid
        finally:
            self.spans[sid] = (sid, name, layer, start, self.clock(), parent, op)
            stack.pop()

    def add(self, name, layer, start, end, parent, op=None) -> int:
        """Attach a span measured elsewhere (program spans, profiler totals)."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append((sid, name, layer, start, end, parent, op))
        return sid

    def current(self):
        """``(span id, op)`` of this thread's innermost open span, or None."""
        stack = self._stack.__dict__.get("open")
        return stack[-1] if stack else None

    def self_times(self) -> dict:
        """Per-span self time: duration minus what its children cover."""
        spans = [s for s in self.spans if s is not None]
        children: dict = {}
        for s in spans:
            if s[5] is not None:
                children.setdefault(s[5], []).append(s)
        return {
            sid: (end - start) - union_length(
                (max(c[3], start), min(c[4], end)) for c in children.get(sid, ())
            )
            for sid, _, _, start, end, _, _ in spans
        }

    def layer_table(self) -> dict:
        """``layer -> {"self_ms", "spans", "by_name"}`` over the whole traced run.
        Spans of concurrent requests overlap, so a layer's self time is
        busy-plus-waiting summed over requests and may exceed wall time."""
        selfs = self.self_times()
        table: dict = {}
        for s in self.spans:
            if s is None:
                continue
            row = table.setdefault(s[2], {"self_ms": 0.0, "spans": 0, "by_name": {}})
            row["self_ms"] += selfs[s[0]] * 1e3
            row["spans"] += 1
            row["by_name"][s[1]] = row["by_name"].get(s[1], 0.0) + selfs[s[0]] * 1e3
        return table

    def chrome(self) -> dict:
        """The recorded spans as Chrome ``trace_event`` JSON."""
        spans = [s for s in self.spans if s is not None]
        origin = min((s[3] for s in spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name, "cat": layer, "ph": "X", "pid": 1,
                    "tid": 0 if op is None else int(op) + 1,
                    "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                    "args": {"id": sid, "parent": parent, "op": op},
                }
                for sid, name, layer, start, end, parent, op in spans
            ],
        }

"""Measurement plumbing shared by every workload: spans, latency summaries,
process-tree memory, leak checks and the environment stamp.

Standard library plus numpy only; nothing here imports ``repro``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Set-ups per run, whose median is ``setup_s``; the last one serves the
#: measured window.
SETUPS = 3
#: Percentiles tried for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A disabled tracer hands out a null context, so untraced runs pay one
    attribute test per call.  An enabled tracer starts in *shadow* mode
    for ``shadow_seconds`` after its first span: it only times top-level
    calls, per name, with two clock reads (the untraced half of a traced
    run, against which the tracing overhead is measured).  After that it
    records full spans.  Spans nest per thread: a span opened while
    another is open on the same thread records it as parent and shares
    its trace id; children of a shadow span are not recorded.
    """

    def __init__(self, enabled: bool, shadow_seconds: float = 0.0) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.shadow: dict[str, list[float]] = {}
        self._shadow_seconds = shadow_seconds
        self._first: float | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_trace = 0

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            return self._shadow(name, stack) if stack[-1] < 0 else self._record(name, stack)
        now = time.perf_counter()
        if self._first is None:
            self._first = now
        if now - self._first < self._shadow_seconds:
            return self._shadow(name, stack)
        return self._record(name, stack)

    @contextlib.contextmanager
    def _shadow(self, name: str, stack: list[int]):
        stack.append(-1)
        began = time.perf_counter()
        try:
            yield None
        finally:
            elapsed = time.perf_counter() - began
            stack.pop()
            if len(stack) == 0:
                with self._lock:
                    self.shadow.setdefault(name, []).append(elapsed)

    @contextlib.contextmanager
    def _record(self, name: str, stack: list[int]):
        with self._lock:
            index = len(self.spans)
            if stack:
                parent = stack[-1]
                trace = self.spans[parent].trace
            else:
                parent = None
                self._next_trace += 1
                trace = self._next_trace
            span = Span(name, time.perf_counter(), parent=parent, trace=trace)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name and s.end]

    def dump(self, path: Path) -> None:
        rows = [
            {"i": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "trace": s.trace}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows))


def median_setup(start, stop) -> tuple[object, list[float]]:
    """Run ``start`` SETUPS times (stopping all but the last); return the
    live handle and every set-up time."""
    times = []
    for attempt in range(SETUPS):
        began = time.perf_counter()
        handle = start()
        times.append(time.perf_counter() - began)
        if attempt < SETUPS - 1:
            stop(handle)
    return handle, times


# --------------------------------------------------------------------- #
# latency summaries
# --------------------------------------------------------------------- #
def summarise(samples_s: list[float]) -> dict:
    """Median and tail (the highest percentile with >= 10 samples beyond
    it) in milliseconds, with the sample count.  Fewer than 20 samples
    support no such percentile; the maximum is reported as the tail."""
    n = len(samples_s)
    if n == 0:
        return {"n": 0, "p50_ms": None, "tail_ms": None, "tail_pct": None}
    values = np.asarray(samples_s, dtype=np.float64) * 1000.0
    tail_pct = next(
        (p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 100.0
    )
    return {
        "n": n,
        "p50_ms": float(np.percentile(values, 50)),
        "tail_ms": float(np.percentile(values, tail_pct)),
        "tail_pct": tail_pct,
        "mean_ms": float(values.mean()),
    }


def median_rate(intervals: list[tuple[float, float]], start: float,
                end: float, size: float = 1.0, slice_s: float = 1.0) -> float:
    """Median over the window's slices (about ``slice_s`` long) of work
    done per second.

    Each operation's ``size`` is spread evenly over its own interval, so
    a slice counts the share of each operation that ran inside it; the
    median over slices keeps a stall of a few seconds out of the figure.
    """
    slices = max(1, int(round((end - start) / slice_s)))
    width = (end - start) / slices
    done = np.zeros(slices)
    for began, ended in intervals:
        duration = max(ended - began, 1e-12)
        first = max(int((began - start) // width), 0)
        last = min(int((ended - start) // width), slices - 1)
        for index in range(first, last + 1):
            lo = start + index * width
            overlap = min(ended, lo + width) - max(began, lo)
            if overlap > 0:
                done[index] += size * overlap / duration
    return float(np.median(done / width))


# --------------------------------------------------------------------- #
# process tree
# --------------------------------------------------------------------- #
def _parent_map() -> dict[int, int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces and parentheses: split after it
        fields = stat[stat.rfind(b")") + 2:].split()
        if fields and fields[0] != b"Z":
            parents[int(entry)] = int(fields[1])
    return parents


def descendants(root: int | None = None) -> list[int]:
    """Live (non-zombie) descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _parent_map().items():
        children.setdefault(ppid, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRSS:
    """Peak of the summed VmHWM of this process and its live descendants.

    A sampling thread polls the process tree; each sample sums VmHWM (each
    process's own high-water mark) over the processes alive at that
    moment, so children that exit between samples still count while they
    lived, and deployments started one after another do not add up.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self._interval = interval
        self._peak_kb = 0
        self._processes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-rss", daemon=True
        )

    def __enter__(self) -> "PeakRSS":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample()

    def sample(self) -> None:
        readings = [_vm_hwm_kb(pid) for pid in [os.getpid(), *descendants()]]
        readings = [kb for kb in readings if kb is not None]
        if sum(readings) > self._peak_kb:
            self._peak_kb = sum(readings)
            self._processes = len(readings)

    @property
    def megabytes(self) -> float:
        return self._peak_kb / 1024.0

    @property
    def processes(self) -> int:
        """Processes alive at the peak sample."""
        return self._processes


def reap_survivors(grace: float = 5.0) -> list[int]:
    """Wait briefly for descendants to exit; SIGKILL and reap any left.

    Returns the pids that were still alive after the grace period.
    """
    deadline = time.monotonic() + grace
    alive = descendants()
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = descendants()
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for pid in alive:
        with contextlib.suppress(ChildProcessError, OSError):
            os.waitpid(pid, 0)
    return alive


# --------------------------------------------------------------------- #
# environment stamp
# --------------------------------------------------------------------- #
def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {
                line.split()[-1] for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _revision(root: Path) -> dict:
    """The git revision when the checkout is a repository, and always a
    digest of the program's sources (a checkout need not be one)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def stamp(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
        **_revision(root),
        "seed": seed,
    }


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    metrics: dict[str, tuple[float, str]]
    detail: dict = field(default_factory=dict)
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

"""Deterministic fault injection for the serving stack.

A :class:`FaultPlan` is a picklable schedule of :class:`FaultPoint`\\ s,
each armed at a *named* seam in the code (``store.header_commit``,
``repl.pipe_send``, ...).  Production code consults the module-level
plan through cheap helpers (:func:`fire`, :func:`torn_fraction`,
:func:`should_drop`, :func:`should_fail_spawn`) that are no-ops when no
plan is installed — the common case costs one ``is None`` check.

Determinism is the point: the plan counts *traversals* of each seam and
fires on an exact traversal index (``skip`` passes, then ``hits``
firings), so a seeded schedule reproduces the same failure at the same
operation every run.  Plans are installed *before* worker processes are
forked, so the primary and every replica of a serving tier all
inherit and evaluate the same schedule — crash faults inside a worker
emulate SIGKILL with ``os._exit`` (no atexit, no flushes, no goodbyes).

The companion :class:`RetryPolicy` (exponential backoff, full jitter,
deadline-capped) is the one retry shape shared by follower sync, worker
respawn and idempotent write resubmission.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time

from repro.errors import ReproError

__all__ = [
    "FaultInjected",
    "FaultPoint",
    "FaultPlan",
    "RetryPolicy",
    "install_fault_plan",
    "clear_fault_plan",
    "active_fault_plan",
    "fire",
    "torn_fraction",
    "should_drop",
    "should_fail_spawn",
]


class FaultInjected(ReproError):
    """An error-mode fault fired at a named fault point."""


#: fault modes → the channel of plan queries they respond to
_CHANNEL_BY_MODE = {
    "crash": None,  # resolved from ``when``
    "error": None,
    "delay": None,
    "torn_write": "tear",
    "drop_message": "drop",
    "fail_spawn": "spawn",
}

MODES = frozenset(_CHANNEL_BY_MODE)


@dataclasses.dataclass(frozen=True)
class FaultPoint:
    """One armed fault at a named seam.

    ``skip`` traversals pass untouched, then the next ``hits``
    traversals fire (``hits <= 0`` means every one, forever).
    """

    point: str
    mode: str
    when: str = "before"  # "before" | "after" — crash/error/delay only
    delay_seconds: float = 0.05
    skip: int = 0
    hits: int = 1
    tear_fraction: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.when not in ("before", "after"):
            raise ValueError(f"unknown fault phase {self.when!r}")
        if not (0.0 < self.tear_fraction < 1.0):
            raise ValueError("tear_fraction must be in (0, 1)")

    @property
    def channel(self) -> str:
        mapped = _CHANNEL_BY_MODE[self.mode]
        return self.when if mapped is None else mapped


class FaultPlan:
    """A deterministic, fork-inheritable schedule of fault points.

    Thread-safe; picklable (the lock is rebuilt on unpickle) so a plan
    can also be shipped over a pipe to an already-running worker.
    """

    def __init__(self, points=(), seed: int = 0):
        self.points = tuple(points)
        self.seed = int(seed)
        self._lock = threading.Lock()
        # (point, channel) → traversal count, and per-FaultPoint fire counts
        self._traversals: dict[tuple[str, str], int] = {}
        self._fired: list[int] = [0] * len(self.points)
        self._history: list[dict] = []

    # -- pickling: locks don't cross process boundaries ------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- matching --------------------------------------------------------
    def _consume(self, point: str, channel: str):
        """Count one traversal; return the FaultPoint that fires, if any."""
        with self._lock:
            key = (point, channel)
            index = self._traversals.get(key, 0) + 1
            self._traversals[key] = index
            for position, armed in enumerate(self.points):
                if armed.point != point or armed.channel != channel:
                    continue
                if index <= armed.skip:
                    continue
                if armed.hits > 0 and self._fired[position] >= armed.hits:
                    continue
                self._fired[position] += 1
                self._history.append(
                    {
                        "point": point,
                        "mode": armed.mode,
                        "channel": channel,
                        "traversal": index,
                        "pid": os.getpid(),
                    }
                )
                return armed
            return None

    # -- the four site-facing queries ------------------------------------
    def fire(self, point: str, when: str = "before"):
        """Crash / raise / delay at a named seam (no-op when unarmed)."""
        armed = self._consume(point, when)
        if armed is None:
            return
        if armed.mode == "delay":
            time.sleep(armed.delay_seconds)
        elif armed.mode == "error":
            raise FaultInjected(f"injected fault at {point} ({when})")
        elif armed.mode == "crash":
            # emulate SIGKILL: no atexit handlers, no buffer flushes
            os._exit(137)

    def torn_fraction(self, point: str):
        """Fraction of the write to keep, or None when unarmed."""
        armed = self._consume(point, "tear")
        return None if armed is None else armed.tear_fraction

    def should_drop(self, point: str) -> bool:
        return self._consume(point, "drop") is not None

    def should_fail_spawn(self, point: str) -> bool:
        return self._consume(point, "spawn") is not None

    # -- introspection ---------------------------------------------------
    def history(self) -> list[dict]:
        """Faults that actually fired *in this process*, in order."""
        with self._lock:
            return list(self._history)

    def traversals(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._traversals)

    def __repr__(self):
        names = ", ".join(f"{p.point}:{p.mode}" for p in self.points)
        return f"FaultPlan(seed={self.seed}, points=[{names}])"


# -- process-global installation (inherited across fork) -----------------

_ACTIVE: FaultPlan | None = None


def install_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; forked children inherit it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear_fault_plan():
    global _ACTIVE
    _ACTIVE = None


def active_fault_plan() -> FaultPlan | None:
    return _ACTIVE


def fire(point: str, when: str = "before"):
    if _ACTIVE is not None:
        _ACTIVE.fire(point, when)


def torn_fraction(point: str):
    if _ACTIVE is not None:
        return _ACTIVE.torn_fraction(point)
    return None


def should_drop(point: str) -> bool:
    return _ACTIVE is not None and _ACTIVE.should_drop(point)


def should_fail_spawn(point: str) -> bool:
    return _ACTIVE is not None and _ACTIVE.should_fail_spawn(point)


# -- shared retry shape ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter, capped by a deadline.

    ``call`` runs ``fn`` up to ``attempts`` times; between attempts it
    sleeps ``uniform(0, min(max_delay, base_delay * 2**attempt))`` (the
    "full jitter" shape — decorrelates synchronized retries).  A
    ``deadline`` bounds the *total* elapsed time: once exceeded, the
    last error propagates instead of sleeping again.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    deadline: float | None = None

    def backoff_cap(self, attempt: int) -> float:
        return min(self.max_delay, self.base_delay * (2.0**attempt))

    def call(
        self,
        fn,
        *,
        retry_on=(Exception,),
        rng=None,
        sleep=time.sleep,
        clock=time.monotonic,
        on_retry=None,
    ):
        rng = rng if rng is not None else random.Random()
        start = clock()
        for attempt in range(max(1, self.attempts)):
            try:
                return fn()
            except retry_on as error:
                if attempt + 1 >= max(1, self.attempts):
                    raise
                delay = rng.uniform(0.0, self.backoff_cap(attempt))
                if self.deadline is not None:
                    remaining = self.deadline - (clock() - start)
                    if remaining <= 0.0:
                        raise
                    delay = min(delay, remaining)
                if on_retry is not None:
                    on_retry(attempt, error, delay)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

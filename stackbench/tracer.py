"""Per-layer self time, measured from outside the program.

The tracer wraps public functions of the ``repro`` layers for the length of a
traced run, patching each name where its caller looks it up (a class
attribute, or the importing module's global), and restores every original
afterwards.  ``src/`` carries no instrument of its own for this.

Each wrapped call pushes a frame on a per-thread stack.  When it returns, its
duration goes to its probe's inclusive time, the duration minus the time of
the calls it made into other wrapped functions *on the same thread* goes to
the probe's self time, and the duration is charged to the parent frame as
child time.  Hot probes (oracle lookups run millions of times a run) are
aggregated per probe and never kept as spans; probes created with
``keep_spans`` also keep one ``(start, end)`` interval per call, for the few
per-request quantities that need intervals (queue wait, batch self time).

For every thread the identity

    sum of self time over probes  ==  time inside outermost wrapped calls

holds by construction, so with ``other`` = the thread's window minus that
covered time, per-layer self times plus ``other`` sum to the window.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


def layer_of(key: str) -> str:
    """The layer a probe key belongs to: its first dotted segment."""
    return key.split(".", 1)[0]


@dataclass
class ProbeStats:
    """Aggregated calls of one probe on one thread."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


@dataclass
class ThreadState:
    """One thread's stack, aggregates and coverage."""

    name: str
    stack: List[list] = field(default_factory=list)
    stats: Dict[str, ProbeStats] = field(default_factory=dict)
    covered_s: float = 0.0
    first_enter: Optional[float] = None
    last_exit: Optional[float] = None


class LayerTracer:
    """Wraps layer entry points and aggregates self time per probe and thread.

    The thread that calls :meth:`start` and :meth:`stop` (the load
    generator) has the window between them; every other thread's window runs
    from its first wrapped call to its last return.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.spans: Dict[str, List[Tuple[float, float]]] = {}
        self.window: Optional[Tuple[float, float]] = None
        self._window_thread: Optional[ThreadState] = None

    # -- per-thread state ----------------------------------------------------
    def _state(self) -> ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def start(self) -> None:
        """Open the calling thread's window, once the probes are in place."""
        self._window_thread = self._state()
        self.window = (_perf(), 0.0)

    def stop(self) -> None:
        """Close the calling thread's window."""
        assert self.window is not None, "stop() before start()"
        self.window = (self.window[0], _perf())

    # -- wrapping -----------------------------------------------------------
    def _enter(self, state: ThreadState, key: str) -> list:
        frame = [_perf(), 0.0, key]
        if state.first_enter is None:
            state.first_enter = frame[0]
        state.stack.append(frame)
        return frame

    def _exit(self, state: ThreadState, frame: list, count: bool = True) -> float:
        end = _perf()
        state.stack.pop()
        duration = end - frame[0]
        key = frame[2]
        stats = state.stats.get(key)
        if stats is None:
            stats = state.stats[key] = ProbeStats()
        stats.calls += count
        stats.inclusive_s += duration
        stats.self_s += duration - frame[1]
        if state.stack:
            state.stack[-1][1] += duration
        else:
            state.covered_s += duration
            state.last_exit = end
        return end

    def wrap(
        self,
        key: str,
        function: Callable,
        keep_spans: bool = False,
        rekey: Optional[Dict[str, str]] = None,
    ) -> Callable:
        """A timed wrapper of ``function`` accounting to probe ``key``.

        ``rekey`` maps a parent frame's probe key to the key this call is
        accounted to instead, so that, for example, recovery's replayed
        commits are not counted as the writer's commits.
        """
        spans = self.spans.setdefault(key, []) if keep_spans else None
        state_of = self._state

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = state_of()
            account = key
            if rekey is not None and state.stack:
                account = rekey.get(state.stack[-1][2], key)
            frame = self._enter(state, account)
            try:
                return function(*args, **kwargs)
            finally:
                end = self._exit(state, frame)
                if spans is not None:
                    spans.append((frame[0], end))

        return wrapper

    def wrap_generator(self, key: str, function: Callable) -> Callable:
        """Like :meth:`wrap`, for a generator function, timed over its iteration.

        Each resumption of the generator is one timed frame; the consumer's
        work between resumptions is not charged to ``key``.  Closing the
        wrapper closes the underlying generator.
        """
        state_of = self._state

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            first = True
            try:
                while True:
                    state = state_of()
                    frame = self._enter(state, key)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        # One enumeration counts as one call, however many
                        # resumptions it takes.
                        self._exit(state, frame, count=first)
                        first = False
                    yield item
            finally:
                iterator.close()

        return wrapper

    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name`` for the traced run, remembering the original."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def observe(self, owner: type, name: str, hook: Callable) -> None:
        """Call ``hook(result)`` after each ``owner.name`` call returns; untimed."""
        original = owner.__dict__[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(result)
            return result

        self.patch(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------
    def totals(self) -> Dict[str, ProbeStats]:
        """Per-probe aggregates summed over threads."""
        merged: Dict[str, ProbeStats] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, stats in state.stats.items():
                total = merged.setdefault(key, ProbeStats())
                total.calls += stats.calls
                total.inclusive_s += stats.inclusive_s
                total.self_s += stats.self_s
        return merged

    def thread_reports(self) -> List[dict]:
        """Per thread: window, self time by layer, and the ``other`` residual."""
        with self._lock:
            threads = list(self._threads)
        reports = []
        for state in threads:
            if state is self._window_thread:
                assert self.window is not None and self.window[1] > 0.0
                window_s = self.window[1] - self.window[0]
            elif state.first_enter is not None and state.last_exit is not None:
                window_s = state.last_exit - state.first_enter
            else:
                continue
            layers: Dict[str, float] = {}
            for key, stats in state.stats.items():
                layer = layer_of(key)
                layers[layer] = layers.get(layer, 0.0) + stats.self_s
            reports.append(
                {
                    "thread": state.name,
                    "window_s": window_s,
                    "covered_s": state.covered_s,
                    "layers": layers,
                    "other_s": window_s - state.covered_s,
                }
            )
        return reports

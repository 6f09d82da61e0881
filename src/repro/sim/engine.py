"""A minimal, dependency-free discrete-event simulation engine.

The engine is deliberately generic: it owns a clock and a priority queue of
:class:`~repro.sim.events.Event` objects and dispatches them to registered
handlers.  Domain logic (placement, departures, metric sampling) lives in
:class:`~repro.sim.simulation.NFVSimulation`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from repro.sim.events import Event, EventType

EventHandler = Callable[[Event], None]


class SimulationClockError(RuntimeError):
    """Raised when an event is scheduled in the past."""


class EventEngine:
    """Priority-queue based discrete-event engine."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._now = 0.0
        self._handlers: Dict[EventType, List[EventHandler]] = {}
        self._processed = 0
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Clock and queue
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Number of events dispatched so far."""
        return self._processed

    def schedule(self, event: Event) -> None:
        """Enqueue an event; it must not be earlier than the current time."""
        if event.time < self._now - 1e-12:
            raise SimulationClockError(
                f"cannot schedule event at t={event.time} before now={self._now}"
            )
        heapq.heappush(self._queue, event)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def on(self, event_type: EventType, handler: EventHandler) -> None:
        """Register ``handler`` for ``event_type`` (multiple handlers allowed)."""
        self._handlers.setdefault(event_type, []).append(handler)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[Event]:
        """Dispatch the next event, returning it (or ``None`` if queue empty)."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self._now = event.time
        self._processed += 1
        for handler in self._handlers.get(event.event_type, []):
            handler(event)
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue empties, a limit hits, or stop().

        Parameters
        ----------
        until:
            Stop once the next event would be strictly later than this time.
        max_events:
            Hard cap on the number of events to process in this call.

        Returns the number of events processed by this call.
        """
        processed_before = self._processed
        self._stopped = False
        while self._queue and not self._stopped:
            if until is not None and self._queue[0].time > until:
                break
            if (
                max_events is not None
                and self._processed - processed_before >= max_events
            ):
                break
            event = self.step()
            if event is not None and event.event_type is EventType.END_OF_SIMULATION:
                break
        return self._processed - processed_before

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._processed = 0
        self._stopped = False

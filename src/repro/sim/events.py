"""Events of the discrete-event NFV simulation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.utils.validation import check_non_negative


class EventType(Enum):
    """The kinds of events the NFV simulation processes."""

    REQUEST_ARRIVAL = "request_arrival"
    REQUEST_DEPARTURE = "request_departure"
    MONITORING = "monitoring"
    NODE_FAILURE = "node_failure"
    NODE_RECOVERY = "node_recovery"
    LINK_FAILURE = "link_failure"
    LINK_RECOVERY = "link_recovery"
    DECISION_COMPLETE = "decision_complete"
    REPLACEMENT_RETRY = "replacement_retry"
    END_OF_SIMULATION = "end_of_simulation"


_sequence_counter = itertools.count()


@dataclass(order=True)
class Event:
    """A timestamped event.

    Ordering is by ``(time, sequence)``; the monotonically increasing
    sequence number breaks ties deterministically (FIFO among simultaneous
    events), which keeps simulations reproducible.
    """

    time: float
    sequence: int = field(compare=True)
    event_type: EventType = field(compare=False)
    payload: Any = field(default=None, compare=False)

    @classmethod
    def create(
        cls, time: float, event_type: EventType, payload: Any = None
    ) -> "Event":
        """Build an event with an automatically assigned sequence number."""
        check_non_negative(time, "time")
        return cls(
            time=time,
            sequence=next(_sequence_counter),
            event_type=event_type,
            payload=payload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time:.3f}, type={self.event_type.value})"


def arrival_event(time: float, request) -> Event:
    """An SFC request arrival."""
    return Event.create(time, EventType.REQUEST_ARRIVAL, payload=request)


def departure_event(time: float, request_id: int) -> Event:
    """An accepted request reaching the end of its holding time."""
    return Event.create(time, EventType.REQUEST_DEPARTURE, payload=request_id)


def monitoring_event(time: float, label: Optional[str] = None) -> Event:
    """A periodic monitoring tick used to sample time-series metrics."""
    return Event.create(time, EventType.MONITORING, payload=label)


def end_event(time: float) -> Event:
    """The end-of-simulation sentinel."""
    return Event.create(time, EventType.END_OF_SIMULATION)

"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventEngine, SimulationClockError
from repro.sim.events import (
    Event,
    EventType,
    arrival_event,
    departure_event,
    end_event,
    monitoring_event,
)


class TestEvents:
    def test_event_ordering_by_time(self):
        early = Event.create(1.0, EventType.MONITORING)
        late = Event.create(2.0, EventType.MONITORING)
        assert early < late

    def test_tie_broken_by_sequence(self):
        first = Event.create(1.0, EventType.MONITORING)
        second = Event.create(1.0, EventType.MONITORING)
        assert first < second  # FIFO among simultaneous events

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event.create(-1.0, EventType.MONITORING)

    def test_factory_helpers(self):
        assert arrival_event(1.0, "req").event_type is EventType.REQUEST_ARRIVAL
        assert departure_event(2.0, 7).payload == 7
        assert monitoring_event(3.0).event_type is EventType.MONITORING
        assert end_event(4.0).event_type is EventType.END_OF_SIMULATION


class TestEngine:
    def test_events_processed_in_time_order(self):
        engine = EventEngine()
        seen = []
        engine.on(EventType.MONITORING, lambda e: seen.append(e.time))
        for t in (3.0, 1.0, 2.0):
            engine.schedule(monitoring_event(t))
        engine.run()
        assert seen == [1.0, 2.0, 3.0]
        assert engine.now == 3.0
        assert engine.processed_events == 3

    def test_run_until_time_limit(self):
        engine = EventEngine()
        seen = []
        engine.on(EventType.MONITORING, lambda e: seen.append(e.time))
        for t in (1.0, 2.0, 3.0):
            engine.schedule(monitoring_event(t))
        processed = engine.run(until=2.0)
        assert processed == 2
        assert seen == [1.0, 2.0]
        assert engine.pending_events == 1

    def test_run_max_events(self):
        engine = EventEngine()
        for t in range(5):
            engine.schedule(monitoring_event(float(t)))
        assert engine.run(max_events=3) == 3
        assert engine.pending_events == 2

    def test_end_of_simulation_stops_run(self):
        engine = EventEngine()
        seen = []
        engine.on(EventType.MONITORING, lambda e: seen.append(e.time))
        engine.schedule(monitoring_event(1.0))
        engine.schedule(end_event(2.0))
        engine.schedule(monitoring_event(3.0))
        engine.run()
        assert seen == [1.0]
        assert engine.pending_events == 1

    def test_handler_can_schedule_future_events(self):
        engine = EventEngine()
        seen = []

        def handler(event):
            seen.append(event.time)
            if event.time < 3.0:
                engine.schedule(monitoring_event(event.time + 1.0))

        engine.on(EventType.MONITORING, handler)
        engine.schedule(monitoring_event(1.0))
        engine.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_scheduling_in_the_past_rejected(self):
        engine = EventEngine()
        engine.schedule(monitoring_event(5.0))
        engine.run()
        with pytest.raises(SimulationClockError):
            engine.schedule(monitoring_event(1.0))

    def test_stop_requests_halt(self):
        engine = EventEngine()
        engine.on(EventType.MONITORING, lambda e: engine.stop())
        for t in (1.0, 2.0, 3.0):
            engine.schedule(monitoring_event(t))
        engine.run()
        assert engine.processed_events == 1

    def test_multiple_handlers_all_called(self):
        engine = EventEngine()
        calls = []
        engine.on(EventType.MONITORING, lambda e: calls.append("a"))
        engine.on(EventType.MONITORING, lambda e: calls.append("b"))
        engine.schedule(monitoring_event(1.0))
        engine.run()
        assert calls == ["a", "b"]

    def test_reset(self):
        engine = EventEngine()
        engine.schedule(monitoring_event(1.0))
        engine.run()
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.processed_events == 0

    def test_step_on_empty_queue_returns_none(self):
        assert EventEngine().step() is None

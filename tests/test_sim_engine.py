"""Unit tests for the event-driven simulation engine."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_schedule_and_run_orders_events_by_time():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20


def test_same_cycle_events_run_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(7, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_zero_delay_event_runs_in_same_cycle():
    sim = Simulator()
    seen = []

    def outer():
        sim.schedule(0, lambda: seen.append(sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert seen == [3]


def test_nested_scheduling_advances_clock():
    sim = Simulator()
    times = []

    def step():
        times.append(sim.now)
        if len(times) < 4:
            sim.schedule(5, step)

    sim.schedule(0, step)
    sim.run()
    assert times == [0, 5, 10, 15]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_rejects_past():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_schedule_at_absolute_cycle():
    sim = Simulator()
    seen = []
    sim.schedule_at(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(5))
    sim.schedule(50, lambda: seen.append(50))
    stopped_at = sim.run(until=10)
    assert seen == [5]
    assert stopped_at == 10
    # The remaining event still runs when the simulation resumes.
    sim.run()
    assert seen == [5, 50]


def test_event_cancellation():
    sim = Simulator()
    seen = []
    handle = sim.schedule(5, lambda: seen.append("cancelled"))
    sim.schedule(6, lambda: seen.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert seen == ["kept"]


def test_step_executes_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(1))
    sim.schedule(2, lambda: seen.append(2))
    assert sim.step() is True
    assert seen == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert seen == [1, 2]


def test_max_cycles_guard_raises():
    sim = Simulator(max_cycles=100)
    sim.schedule(200, lambda: None)
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_events_counts_queue():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_clock_does_not_go_backwards():
    sim = Simulator()
    observed = []

    def record():
        observed.append(sim.now)

    for delay in (30, 10, 20, 10, 0):
        sim.schedule(delay, record)
    sim.run()
    assert observed == sorted(observed)


def test_step_honours_max_cycles():
    sim = Simulator(max_cycles=100)
    sim.schedule(50, lambda: None)
    sim.schedule(200, lambda: None)
    assert sim.step() is True          # event at 50 is fine
    with pytest.raises(SimulationError):
        sim.step()                     # event at 200 trips the guard


def test_run_rejects_backwards_until():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 10               # clock untouched


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1, lambda: None)
    drop = sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    drop.cancel()
    assert sim.pending_events == 1
    drop.cancel()                      # double-cancel must not double-count
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert keep.cycle == 1


def test_pending_events_after_stepping_past_cancelled():
    sim = Simulator()
    sim.schedule(1, lambda: None).cancel()
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 1
    assert sim.step() is True          # skips the cancelled event
    assert sim.pending_events == 0
    assert sim.step() is False


def test_cancel_after_execution_does_not_corrupt_pending_count():
    sim = Simulator()
    handle = sim.schedule(1, lambda: None)
    sim.run()                          # event executed
    handle.cancel()                    # too late: must be a no-op
    assert sim.pending_events == 0
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 1     # live event not masked


@pytest.mark.parametrize("delay", [0.5, 1.7, 2.0])
def test_fractional_delay_is_rejected_not_truncated(delay):
    sim = Simulator()
    with pytest.raises(TypeError, match=re.escape(repr(delay))):
        sim.schedule(delay, lambda: None)
    assert sim.pending_events == 0


class _Cycles:
    """An integer-like delay: defines ``__index__``, as NumPy ints do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_delays_are_accepted():
    sim = Simulator()
    seen = []
    sim.schedule(_Cycles(3), lambda: seen.append(sim.now))
    sim.schedule(True, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1, 3]


def test_numpy_integer_delays_are_accepted():
    np = pytest.importorskip("numpy")
    sim = Simulator()
    seen = []
    sim.schedule(np.int64(3), lambda: seen.append(sim.now))
    sim.schedule(np.uint8(1), lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1, 3]


# ---------------------------------------------------------------------------
# Property test: random interleavings against a sorted-list reference model
# ---------------------------------------------------------------------------
class _ModelEvent:
    def __init__(self, cycle, seq, label, child_delay):
        self.cycle = cycle
        self.seq = seq
        self.label = label
        self.child_delay = child_delay
        self.cancelled = False
        self.queued = True


class _ModelSimulator:
    """The engine's contract, as plainly as possible: a list kept sorted by
    ``(cycle, seq)``, popped from the front."""

    def __init__(self):
        self.now = 0
        self.queue = []
        self.fired = []
        self.children = []
        self.seq = 0

    def schedule(self, delay, label, child_delay):
        event = _ModelEvent(self.now + delay, self.seq, label, child_delay)
        self.seq += 1
        self.queue.append(event)
        self.queue.sort(key=lambda e: (e.cycle, e.seq))
        return event

    def cancel(self, event):
        if event.queued:
            event.cancelled = True

    def _execute(self, event):
        self.now = event.cycle
        self.fired.append((event.label, self.now))
        if event.child_delay is not None:
            self.children.append(self.schedule(event.child_delay,
                                               event.label + "/child", None))

    def step(self):
        while self.queue:
            event = self.queue.pop(0)
            event.queued = False
            if not event.cancelled:
                self._execute(event)
                return True
        return False

    def run(self, until):
        while self.queue:
            if self.queue[0].cycle > until:
                self.now = until
                return self.now
            event = self.queue.pop(0)
            event.queued = False
            if not event.cancelled:
                self._execute(event)
        return self.now

    @property
    def pending_events(self):
        return sum(not e.cancelled for e in self.queue)


_delays = st.integers(min_value=0, max_value=4)
_engine_ops = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _delays, st.none() | _delays),
    st.tuples(st.just("schedule_at"), _delays, st.none() | _delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=6)),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_engine_ops)
def test_engine_matches_sorted_list_model(ops):
    sim, model = Simulator(), _ModelSimulator()
    fired = []
    scheduled = []      # (engine Event, model event) of scheduled events
    children = []       # engine Events scheduled by callbacks, in order

    def make_callback(label, child_delay):
        def callback():
            fired.append((label, sim.now))
            if child_delay is not None:
                children.append(sim.schedule(
                    child_delay, make_callback(label + "/child", None)))
        return callback

    handles = []
    for index, op in enumerate(ops):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            _, delay, child_delay = op
            label = str(index)
            callback = make_callback(label, child_delay)
            if kind == "schedule":
                handle = sim.schedule(delay, callback)
            else:
                handle = sim.schedule_at(sim.now + delay, callback)
            scheduled.append((handle,
                              model.schedule(delay, label, child_delay)))
        elif kind == "cancel":
            if handles:
                handle, event = handles[op[1] % len(handles)]
                handle.cancel()
                model.cancel(event)
        elif kind == "step":
            assert sim.step() == model.step()
        else:
            until = sim.now + op[1]
            assert sim.run(until=until) == model.run(until)

        assert fired == model.fired
        assert sim.now == model.now
        assert sim.pending_events == model.pending_events
        assert len(children) == len(model.children)
        handles = scheduled + list(zip(children, model.children))
        for handle, event in handles:
            assert handle.cycle == event.cycle
            assert handle.cancelled == event.cancelled

    sim.run()
    model.run(float("inf"))
    assert fired == model.fired
    assert sim.pending_events == model.pending_events == 0

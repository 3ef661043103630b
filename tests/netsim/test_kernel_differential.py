"""Differential tests of the netsim kernel against a naive scheduler.

``Kernel`` keeps its event list as a heap of ``(time, priority, seq,
event)`` tuples with tombstone cancellation and runs it in one inlined
loop.  The reference here is the specification written the slow way: a
list kept sorted by ``(time, priority, insertion index)``, popped from
the front.  A generated program of

* ``schedule`` / ``schedule_after`` calls at the top level and from
  inside actions, at ``now`` and later, with priority ties, and some
  into the past (both must raise ``SchedulingError``),
* ``cancel()`` of handles before and after they fired,
* ``stop()`` from inside actions,
* run slices with ``until`` and ``max_events``, and
* a time listener attached at a drawn step

is replayed on both.  Compared after every step: the execution log
(labels and ``now`` as seen by each action), the listener calls, the
value ``run`` returns, ``now``, ``executed_events``, ``time_advances``,
``peak_pending_events`` and ``pending_events``.

Cancelled entries stay in the list until they reach its head, so they
count towards ``peak_pending_events``; the reference drops them at the
same points (the head of the list inside the loop) to match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Kernel, SchedulingError


class ReferenceHandle:
    """What ``schedule`` returns on the reference side."""

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """The event-list semantics, executed naively."""

    def __init__(self):
        self.now = 0.0
        self.entries = []       # [time, priority, index, handle, action]
        self.inserted = 0
        self.executed_events = 0
        self.time_advances = 0
        self.peak_pending_events = 0
        self.time_listeners = []
        self.stop_requested = False

    @property
    def pending_events(self):
        return sum(1 for entry in self.entries if not entry[3].cancelled)

    def schedule(self, time, action, priority=0):
        if time < self.now:
            raise SchedulingError("past")
        handle = ReferenceHandle()
        self.entries.append((time, priority, self.inserted, handle, action))
        self.inserted += 1
        self.entries.sort(key=lambda entry: entry[:3])
        self.peak_pending_events = max(self.peak_pending_events,
                                       len(self.entries))
        return handle

    def schedule_after(self, delay, action, priority=0):
        if delay < 0:
            raise SchedulingError("negative delay")
        return self.schedule(self.now + delay, action, priority)

    def stop(self):
        self.stop_requested = True

    def _advance(self, time):
        if time != self.now:
            self.now = time
            self.time_advances += 1
            for listener in self.time_listeners:
                listener(time)

    def run(self, until=None, max_events=None):
        self.stop_requested = False
        executed = 0
        cut_short = False
        while True:
            if self.stop_requested or (max_events is not None
                                       and executed >= max_events):
                cut_short = True
                break
            while self.entries and self.entries[0][3].cancelled:
                self.entries.pop(0)
            if not self.entries or (until is not None
                                    and self.entries[0][0] > until):
                break
            time, _, _, _, action = self.entries.pop(0)
            self._advance(time)
            action()
            self.executed_events += 1
            executed += 1
        # the clock reaches the horizon unless an event is still due
        due = cut_short and until is not None and any(
            entry[0] <= until and not entry[3].cancelled
            for entry in self.entries)
        if until is not None and until > self.now and not due:
            self._advance(until)
        return self.now


# repeated values make ties likely; -1.0 schedules into the past
OFFSETS = st.sampled_from([0.0, 1.0, 0.0, 0.5, 1.0, 2.0, 3.5, -1.0])
PRIORITIES = st.sampled_from([0, 0, 0, 1, -1])


def _schedule_ops(children):
    return st.tuples(st.sampled_from(["at", "after"]), OFFSETS, PRIORITIES,
                     children)


#: what an action does when it fires (two levels of nesting)
INNER = st.lists(st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("stop"))), max_size=2)
ACTION_OPS = st.lists(st.one_of(
    _schedule_ops(st.lists(_schedule_ops(INNER), max_size=2)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("stop"))), max_size=3)

STEPS = st.one_of(
    _schedule_ops(ACTION_OPS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0])),
              st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("listen")))

PROGRAMS = st.lists(STEPS, min_size=1, max_size=14)


class Replay:
    """Runs one program on one kernel and logs what it observes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []
        self.log = []
        self.labels = 0

    def schedule(self, op):
        kind, offset, priority, children = op
        kernel = self.kernel
        label = self.labels
        self.labels += 1

        def action():
            self.log.append(("fire", label, kernel.now))
            for child in children:
                self.do(child)

        try:
            if kind == "at":
                handle = kernel.schedule(kernel.now + offset, action,
                                         priority=priority)
            else:
                handle = kernel.schedule_after(offset, action,
                                               priority=priority)
        except SchedulingError:
            self.log.append(("refused", label))
            return
        self.handles.append(handle)

    def do(self, op):
        kind = op[0]
        if kind in ("at", "after"):
            self.schedule(op)
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "stop":
            self.kernel.stop()
        elif kind == "listen":
            self.kernel.time_listeners.append(
                lambda time: self.log.append(("listener", time)))
        elif kind == "run":
            _, until, max_events = op
            if until is not None:
                until += self.kernel.now
            returned = self.kernel.run(until=until, max_events=max_events)
            self.log.append(("returned", returned))
        kernel = self.kernel
        self.log.append(("state", kernel.now, kernel.executed_events,
                         kernel.time_advances, kernel.peak_pending_events,
                         kernel.pending_events))


def assert_same_as_reference(program):
    observed = Replay(Kernel())
    expected = Replay(ReferenceKernel())
    for step in program + [("run", None, None)]:
        observed.do(step)
        expected.do(step)
        assert observed.log == expected.log, step


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_kernel_matches_the_naive_scheduler(program):
    assert_same_as_reference(program)


REGRESSIONS = {
    # two events at one time and priority run in scheduling order
    "fifo-among-ties": [
        ("at", 1.0, 0, []), ("at", 1.0, 0, []), ("run", None, None)],
    # a cancelled event never runs, and leaves the list at the head
    "cancelled-before-it-fires": [
        ("at", 0.0, 0, []), ("cancel", 0), ("at", 1.0, 0, [])],
    # two events at one time advance the clock once
    "one-advance-per-time": [
        ("at", 1.0, 0, []), ("at", 1.0, 0, []), ("listen",)],
    # cancelling an event that already fired is a no-op
    "cancelled-after-it-fired": [
        ("at", 0.5, 0, []), ("run", None, None), ("cancel", 0),
        ("at", 0.5, 0, [])],
    # an action schedules at now, with a lower priority than a waiting
    # event of the same time
    "scheduled-at-now-from-an-action": [
        ("at", 1.0, 0, [("at", 0.0, -1, [])]), ("at", 1.0, 0, [])],
    # max_events cuts a run short before its horizon
    "max-events-before-the-horizon": [
        ("at", 1.0, 0, []), ("at", 2.0, 0, []), ("listen",),
        ("run", 5.0, 1)],
    # stop() from inside an action before the horizon
    "stop-before-the-horizon": [
        ("at", 1.0, 0, [("stop",)]), ("at", 2.0, 0, []), ("run", 5.0, None)],
    # cut short with only a cancelled event left before the horizon
    "cut-short-with-a-tombstone-due": [
        ("at", 1.0, 0, []), ("at", 2.0, 0, []), ("cancel", 1),
        ("run", 5.0, 1)],
    # shrunk by the generator against each of the three mutants (FIFO
    # on ties broken, tombstone check dropped, an advance per event)
    "shrunk-ties-tombstone-stop": [
        ("at", 0.0, 0, []), ("at", 0.0, 0, []), ("at", 0.0, 0, []),
        ("at", 1.0, 0, []), ("cancel", 0), ("at", 1.0, -1, [("stop",)]),
        ("run", 0.5, None)],
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_kernel_regressions(name):
    assert_same_as_reference(REGRESSIONS[name])


def test_run_cut_short_by_max_events_keeps_the_pending_event():
    """``run(until=T, max_events=N)`` that stops early must not move the
    clock past the events it left; the next ``run`` executes them."""
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: hits.append(k.now))
    k.schedule(2.0, lambda: hits.append(k.now))
    seen = []
    k.time_listeners.append(seen.append)
    assert k.run(until=5.0, max_events=1) == 1.0
    assert k.pending_events == 1
    assert k.run() == 2.0
    assert hits == [1.0, 2.0]
    # the listeners never heard of 5.0 while the event at 2.0 waited
    assert seen == [1.0, 2.0]


def test_run_cut_short_by_stop_keeps_the_pending_event():
    k = Kernel()
    hits = []
    k.schedule(1.0, lambda: (hits.append(k.now), k.stop()))
    k.schedule(2.0, lambda: hits.append(k.now))
    assert k.run(until=5.0) == 1.0
    assert k.pending_events == 1
    assert k.run(until=5.0) == 5.0
    assert hits == [1.0, 2.0]


def test_run_cut_short_with_nothing_due_reaches_the_horizon():
    k = Kernel()
    k.schedule(1.0, lambda: None)
    k.schedule(9.0, lambda: None)
    assert k.run(until=5.0, max_events=1) == 5.0
    assert k.pending_events == 1

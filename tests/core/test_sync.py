"""Tests for the conservative synchronisation protocol (§3.1).

The central properties, per the paper and Figure 3:

* neither simulator ever produces events in the other's past;
* the HDL simulator's local time always lags the network simulator's;
* the protocol is deadlock-free (every posted message is eventually
  delivered once time advances past it).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (CausalityError, ConservativeSynchronizer,
                        LockstepSynchronizer, TimeBase)
from repro.hdl import Simulator


def make_sync(deltas=None, handlers=None, **kwargs):
    tb = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)
    hdl = Simulator()
    clk = hdl.signal("clk", init="0")
    hdl.add_clock(clk, period=tb.clock_period_ticks)
    sync = ConservativeSynchronizer(hdl, tb, deltas or {"cell": 55},
                                    handlers=handlers, **kwargs)
    return tb, hdl, sync


class TestConservative:
    def test_single_queue_message_delivered(self):
        delivered = []
        tb, hdl, sync = make_sync(
            handlers={"cell": lambda m: delivered.append(m.payload)})
        sync.post("cell", 1e-6, "A")
        assert delivered == ["A"]

    def test_hdl_advances_to_message_time(self):
        tb, hdl, sync = make_sync()
        sync.post("cell", 1e-6, "A")
        assert hdl.now >= tb.to_ticks(1e-6)

    def test_lag_invariant_holds(self):
        tb, hdl, sync = make_sync()
        for k in range(1, 20):
            sync.post("cell", k * 1e-6, k)
            assert tb.to_seconds(hdl.now) <= sync.originator_time + 1e-12

    def test_message_in_granted_past_rejected(self):
        tb, hdl, sync = make_sync()
        sync.post("cell", 2e-6, "A")
        with pytest.raises(CausalityError):
            sync.post("cell", 1e-6, "B")

    def test_two_queues_head_waits_for_coverage(self):
        """A message is held until every other queue has seen its
        time — the queueing rule of §3.1."""
        delivered = []
        tb, hdl, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(("cell",
                                                          m.payload)),
                      "tick": lambda m: delivered.append(("tick",
                                                          m.payload))})
        sync.post("cell", 1e-6, "A")
        assert delivered == []  # tick queue silent: A must wait
        sync.post("tick", 2e-6, "T")
        # now both queues cover t=1e-6: A releases; T waits for cell
        assert ("cell", "A") in delivered
        assert ("tick", "T") not in delivered
        sync.advance_time(3e-6)
        assert ("tick", "T") in delivered

    def test_null_messages_release_waiting_heads(self):
        delivered = []
        tb, hdl, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m.payload),
                      "tick": lambda m: None})
        sync.post("cell", 1e-6, "A")
        assert delivered == []
        sync.advance_time(1e-6)  # null message covers the tick queue
        assert delivered == ["A"]
        assert sync.stats.null_messages == 1

    def test_deadlock_freedom_under_drain(self):
        """Whatever is still queued, drain() delivers everything."""
        delivered = []
        tb, hdl, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m.payload),
                      "tick": lambda m: delivered.append("tick")})
        for k in range(5):
            sync.post("cell", (k + 1) * 1e-6, k)
        sync.drain(6e-6)
        assert [d for d in delivered if d != "tick"] == [0, 1, 2, 3, 4]
        assert sync.queues.pending() == 0

    def test_windows_counted(self):
        tb, hdl, sync = make_sync()
        for k in range(1, 4):
            sync.post("cell", k * 1e-6, k)
        assert sync.stats.windows_granted == 3

    def test_simultaneous_messages_one_window(self):
        tb, hdl, sync = make_sync()
        sync.post("cell", 1e-6, "A")
        sync.post("cell", 1e-6, "B")
        assert sync.stats.windows_granted == 1

    def test_stats_dict(self):
        tb, hdl, sync = make_sync()
        sync.post("cell", 1e-6, "A")
        stats = sync.stats.as_dict()
        assert stats["messages_posted"] == 1
        assert stats["ticks_simulated"] > 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["cell", "tick"]),
                              st.integers(1, 1000)),
                    min_size=1, max_size=40))
    def test_property_lag_invariant_and_delivery(self, events):
        """For any time-ordered message mix: the HDL never overtakes
        the originator, and drain() delivers every message."""
        delivered = []
        tb, hdl, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m),
                      "tick": lambda m: delivered.append(m)})
        time = 0.0
        posted = 0
        for msg_type, gap_ns in events:
            time += gap_ns * 1e-9
            sync.post(msg_type, time, posted)
            posted += 1
            assert tb.to_seconds(hdl.now) <= sync.originator_time + 1e-12
        sync.drain(time + 1e-6)
        assert len(delivered) == posted
        # messages of each type delivered in their queue order
        for name in ("cell", "tick"):
            payloads = [m.payload for m in delivered
                        if m.msg_type == name]
            assert payloads == sorted(payloads)


class TestLockstep:
    def make(self, handler=None):
        tb = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)
        hdl = Simulator()
        clk = hdl.signal("clk", init="0")
        hdl.add_clock(clk, period=10)
        return tb, hdl, LockstepSynchronizer(hdl, tb, handler=handler)

    def test_delivers_immediately(self):
        seen = []
        tb, hdl, sync = self.make(handler=lambda m: seen.append(m.payload))
        sync.post("cell", 1e-6, "A")
        assert seen == ["A"]
        assert hdl.now == tb.to_ticks(1e-6)

    def test_one_sync_exchange_per_clock(self):
        tb, hdl, sync = self.make()
        sync.advance_time(1e-6)  # 100 clock periods of 10 ticks
        assert sync.stats.null_messages == 100

    def test_conservative_needs_fewer_exchanges_than_lockstep(self):
        """The E2 claim in miniature: for sparse traffic the timing
        window protocol exchanges far fewer sync messages."""
        tb, hdl_c, conservative = make_sync()
        messages = [(k * 1e-5) for k in range(1, 6)]  # sparse cells
        for t in messages:
            conservative.post("cell", t, None)
        conservative.drain(max(messages) + 1e-6)

        tb2, hdl_l, lockstep = self.make()
        for t in messages:
            lockstep.post("cell", t, None)
        lockstep.advance_time(max(messages) + 1e-6)

        conservative_exchanges = (conservative.stats.messages_posted
                                  + conservative.stats.null_messages)
        lockstep_exchanges = (lockstep.stats.messages_posted
                              + lockstep.stats.null_messages)
        assert conservative_exchanges * 10 < lockstep_exchanges

    def test_past_message_rejected(self):
        tb, hdl, sync = self.make()
        sync.post("cell", 1e-6, None)
        with pytest.raises(CausalityError):
            sync.post("cell", 0.5e-6, None)


class TestNullCoalescing:
    def test_off_by_default(self):
        _, _, sync = make_sync()
        assert sync.coalesce_nulls is False
        for k in range(4):
            sync.advance_time((k + 1) * 1e-8)
        assert sync.stats.null_messages == 4
        assert sync.stats.null_messages_coalesced == 0

    def test_burst_within_cell_time_coalesces(self):
        # cell time = 53 clocks x 10 ticks x 1ns = 5.3e-7 s; a burst
        # of per-clock stamps inside one cell window folds into the
        # first grant
        _, _, sync = make_sync(coalesce_nulls=True)
        for k in range(10):
            sync.advance_time((k + 1) * 1e-8)
        assert sync.stats.null_messages == 10
        assert sync.stats.null_messages_coalesced == 9
        assert sync.originator_time == pytest.approx(1e-7)

    def test_stamp_beyond_cell_boundary_flushes(self):
        tb, _, sync = make_sync(coalesce_nulls=True)
        sync.advance_time(1e-8)                   # applies, opens window
        sync.advance_time(2e-8)                   # deferred
        boundary = 1e-8 + tb.cell_time_seconds
        sync.advance_time(boundary + 1e-9)        # crosses -> flush
        assert sync.stats.null_messages_coalesced == 1
        sync.advance_time(boundary + 2e-9)        # deferred again
        assert sync.stats.null_messages_coalesced == 2

    def test_data_message_flushes_pending_bound(self):
        delivered = []
        _, _, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m.payload),
                      "tick": lambda m: None},
            coalesce_nulls=True)
        sync.post("cell", 1e-6, "A")
        assert delivered == []        # tick queue has no coverage yet
        sync.advance_time(9e-7)       # below 1e-6: A still held
        sync.advance_time(1.05e-6)    # deferred bound covers t=1e-6...
        sync.post("cell", 2e-6, "B")  # ...and the data message flushes it
        assert delivered == ["A"]

    def test_drain_flushes_pending_bound(self):
        delivered = []
        _, _, sync = make_sync(
            deltas={"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m.payload),
                      "tick": lambda m: None},
            coalesce_nulls=True)
        sync.post("cell", 1e-6, "A")
        sync.drain(2e-6)
        assert delivered == ["A"]
        assert sync.queues.pending() == 0

    def test_post_registers_stamp_before_flushing_stale_bound(self):
        """Several synchronisers can share one HDL kernel (a shard's
        switch ports + accounting unit live in one environment).  A
        sibling's post may legitimately run the shared clock to a new
        cell's stamp before this synchroniser hears about it; ``post``
        must register the incoming message's timestamp *before*
        flushing its stale coalesced bound, or the flush's window
        grant trips the lag check against outdated knowledge."""
        tb = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)
        hdl = Simulator()
        clk = hdl.signal("clk", init="0")
        hdl.add_clock(clk, period=tb.clock_period_ticks)
        delivered = []
        sibling = ConservativeSynchronizer(hdl, tb, {"cell": 55})
        acct = ConservativeSynchronizer(
            hdl, tb, {"cell": 55, "tick": 2},
            handlers={"cell": lambda m: delivered.append(m.payload),
                      "tick": lambda m: None},
            coalesce_nulls=True)
        cell_s = tb.cell_time_seconds
        acct.advance_time(1.0 * cell_s)       # applied: sets the flush
        acct.post("cell", 1.5 * cell_s, "A")  # held (tick uncovered)
        acct.advance_time(1.8 * cell_s)       # below boundary: deferred
        assert acct.stats.null_messages_coalesced == 1
        # the sibling runs the SHARED clock to 2.0 cell times
        sibling.post("cell", 2.0 * cell_s, "X")
        assert tb.to_seconds(hdl.now) > 1.8 * cell_s
        # must not raise: the 2.0 stamp is proof the originator got there
        acct.post("cell", 2.0 * cell_s, "B")
        assert delivered == ["A"]

    def test_coalesced_deliveries_match_uncoalesced(self):
        """Horizon batching must not change what is delivered or when
        (in HDL ticks) — only how many queue sweeps it costs."""
        runs = {}
        for coalesce in (False, True):
            delivered = []
            _, hdl, sync = make_sync(
                deltas={"cell": 55, "tick": 2},
                handlers={"cell": lambda m, d=delivered: d.append(
                    (m.payload, sync.hdl.now)),
                          "tick": lambda m: None},
                coalesce_nulls=coalesce)
            for k in range(40):
                sync.advance_time((k + 1) * 2.5e-8)
                if k % 10 == 9:
                    sync.post("cell", (k + 1) * 2.5e-8 + 1e-9, k)
            sync.drain(2e-6)
            runs[coalesce] = delivered
        assert runs[True] == runs[False]
        assert len(runs[True]) == 4

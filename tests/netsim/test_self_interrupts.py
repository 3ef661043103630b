"""SELF-interrupt bookkeeping of process models."""

from repro.netsim import (InterruptKind, Kernel, Node, ProcessModel,
                          ProcessorModule, State)


def _timer_process(kernel):
    """A process that counts its SELF interrupts (nothing re-arms)."""
    process = ProcessModel("timer")
    process.add_state(State("idle"), initial=True)
    process.sv["fired"] = 0

    def count(pr, interrupt):
        if interrupt.kind is InterruptKind.SELF:
            pr.sv["fired"] += 1
        return False

    process.add_transition("idle", "idle", guard=count)
    node = Node("n", kernel)
    node.add_module(ProcessorModule("proc", process))
    node.start()
    return process


def test_cancel_self_interrupts_counts_only_pending_timers():
    kernel = Kernel()
    process = _timer_process(kernel)
    for delay in (1.0, 2.0, 3.0, 4.0, 5.0):
        process.schedule_self(delay)
    kernel.run()
    assert process.sv["fired"] == 5
    process.schedule_self(1.0)
    assert process.cancel_self_interrupts() == 1
    kernel.run()
    assert process.sv["fired"] == 5


def test_pending_timer_list_stays_bounded():
    """A timer re-armed every interval (the GCU's tariff timer) keeps
    one live entry, however many have fired; a cancelled one is
    dropped at the next arm."""
    kernel = Kernel()
    process = _timer_process(kernel)
    for _ in range(50):
        process.schedule_self(1.0)
        kernel.run()
    assert process.sv["fired"] == 50
    process.schedule_self(1.0).cancel()
    process.schedule_self(1.0)
    assert len(process._pending_self) == 1
    assert process.cancel_self_interrupts() == 1


def test_a_timer_cancelling_from_its_own_delivery_does_not_count_itself():
    kernel = Kernel()
    process = ProcessModel("p")
    cancelled = []

    def on_self(pr, interrupt):
        if interrupt.kind is InterruptKind.SELF:
            cancelled.append(pr.cancel_self_interrupts())
        return False

    process.add_state(State("idle"), initial=True)
    process.add_transition("idle", "idle", guard=on_self)
    node = Node("n", kernel)
    node.add_module(ProcessorModule("proc", process))
    node.start()
    process.schedule_self(1.0)
    process.schedule_self(2.0)
    kernel.run()
    assert cancelled == [1]

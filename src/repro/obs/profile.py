"""Profiling span hooks on the co-simulation kernel hot paths.

The hot-path overhaul PRs identified four loops that dominate wall
clock: the netsim :meth:`~repro.netsim.kernel.Kernel.run` event loop,
the HDL :meth:`~repro.hdl.simulator.Simulator.run` dispatch (cycle
engine or heap), the conservative protocol's queue sweep
(``ConservativeSynchronizer._advance``) and the bulk cell compiler
(``CellSender._schedule_cell``).  Each of those sites carries a
``profile`` attribute: ``None`` by default (one attribute check, zero
cost), or a zero-arg callable returning a context manager wrapped
around the hot section.

:func:`attach_profiling` points all four at the environment's metrics
registry — every invocation then lands one wall-clock sample in a
``prof.*`` histogram (see :data:`PROFILE_METRICS`), giving a per-layer
time-attribution breakdown without a sampling profiler in the loop.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.environment import CoVerificationEnvironment

__all__ = ["attach_profiling", "PROFILE_METRICS"]

#: histogram names written by an attached profiler, one per hot path
PROFILE_METRICS = (
    "prof.netsim_run_s",
    "prof.hdl_run_s",
    "prof.sync_advance_s",
    "prof.cell_compile_s",
)


def attach_profiling(env: "CoVerificationEnvironment") -> List[str]:
    """Wire profiling spans onto *env*'s four kernel hot paths.

    Requires an enabled metrics registry (samples need somewhere to
    land); raises :class:`ValueError` otherwise.  Returns the list of
    histogram names now being recorded.
    """
    registry = env.metrics_registry
    if not registry.enabled:
        raise ValueError(
            "attach_profiling needs an enabled metrics registry "
            "(CoVerificationEnvironment(observe=True))")
    # One reusable SpanTimer per site: the hooks fire once per sync
    # window on single-threaded, non-reentrant paths, so handing back
    # the same timer skips the per-call registry lookup and allocation
    # that used to dominate the observed-mode overhead.
    netsim_timer = registry.timer("prof.netsim_run_s")
    hdl_timer = registry.timer("prof.hdl_run_s")
    sync_timer = registry.timer("prof.sync_advance_s")
    compile_timer = registry.timer("prof.cell_compile_s")
    env.network.kernel.profile = lambda: netsim_timer
    env.hdl.profile = lambda: hdl_timer
    for entity in env.entities:
        # Behavioural entities have neither a synchroniser nor a cell
        # sender — nothing to sample on a zero-delta endpoint.
        if hasattr(entity, "sync") and hasattr(entity.sync, "profile"):
            entity.sync.profile = lambda: sync_timer
        if hasattr(entity, "sender"):
            entity.sender.profile = lambda: compile_timer
    return list(PROFILE_METRICS)

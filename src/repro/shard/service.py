"""The persistent scenario job service behind ``python -m repro serve``.

:class:`JobService` turns the one-shot sweep runner into a long-lived
server: a request queue, a worker-process pool that *persists across
jobs* (so the compiled cell-template cache — see
:func:`repro.rtl.cell_stream.enable_shared_templates` — amortises
compilation over every job a worker ever runs), a result store, and a
JSON-lines TCP front door.

Jobs are sweep run payloads (:meth:`repro.sweep.RunSpec.as_dict`
dicts) executed by :func:`repro.sweep.scenario.execute_run` — the same
scenario, validation and failure-injection hooks the sweep runner
uses.  The failure policy mirrors :class:`repro.sweep.SweepRunner`:

* **error** (scenario exception) — recorded immediately with the full
  worker traceback; deterministic, never retried;
* **crash** (worker death) — the worker is respawned and the job
  retried once, then recorded as ``status: "crash"`` with the exit
  code;
* **timeout** — the worker is killed and respawned, the job retried
  once, then recorded as ``status: "timeout"``.

Wire protocol (one JSON object per line, both directions)::

    {"op": "submit", "run": {...}}          -> {"ok": true, "job_id": "job-1"}
    {"op": "result", "job_id": "job-1",
     "wait": true, "timeout": 30}           -> {"ok": true, "job": {...}}
    {"op": "status"}                        -> {"ok": true, "status": {...}}
    {"op": "stats"}                         -> {"ok": true, "stats": {...}}
    {"op": "shutdown"}                      -> {"ok": true}

The ``stats`` op is the live-introspection STATS handshake (PR 10):
queue depth, the per-worker job/crash/timeout/retry counters (counters
belong to the pool *slot*, so they survive a worker respawn), and the
merged telemetry of the jobs the service has completed — latency
histograms bucket-merged across jobs
(:func:`repro.obs.merge.merge_histograms`), synchroniser and
provenance totals summed — plus the ids of the jobs running right
now.  ``python -m repro stats --service HOST:PORT`` and ``python -m
repro serve --status HOST:PORT`` render it.

:class:`ServeClient` wraps that protocol for Python callers (and the
tests' serve smoke).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Tuple

from ..obs.merge import merge_histograms
from ..sweep.runner import start_context
from ..sweep.scenario import execute_run
from ..sweep.spec import RunSpec, SweepSpecError

__all__ = ["JobService", "ServeClient"]

#: attempts per job before a crash/timeout becomes terminal
MAX_ATTEMPTS = 2


def _service_worker_main(conn) -> None:
    """Worker-process entry: serve jobs until told to stop.

    The process persists across jobs, which is the whole point: the
    shared compiled cell-template cache enabled here carries each
    job's template compilations into every later job this worker runs
    (``templates`` in each result reports the accumulated reuse).
    """
    import traceback as _tb

    from ..rtl.cell_stream import (enable_shared_templates,
                                   shared_template_stats)
    enable_shared_templates()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, job_id, run, attempt = message
        try:
            result = execute_run(run, attempt=attempt, in_worker=True)
            result["templates"] = shared_template_stats()
            conn.send(("ok", job_id, result))
        except Exception as exc:
            conn.send(("error", job_id,
                       {"type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": _tb.format_exc()}))


class _Worker:
    """Bookkeeping for one persistent pool worker.

    The *slot* outlives any single worker process: :meth:`JobService.
    _replace` swaps a fresh process into the same slot, so ``name``
    and the per-slot ``counters`` (jobs settled, errors, crashes,
    timeouts, retries) accumulate across respawns — which is what the
    STATS introspection wants to show.
    """

    __slots__ = ("process", "conn", "job_id", "attempt", "deadline",
                 "name", "counters")

    def __init__(self, process, conn, name: str) -> None:
        self.process = process
        self.conn = conn
        self.name = name
        self.job_id: Optional[str] = None
        self.attempt = 0
        self.deadline = 0.0
        self.counters = {"jobs": 0, "ok": 0, "errors": 0,
                         "crashes": 0, "timeouts": 0, "retries": 0}

    @property
    def busy(self) -> bool:
        return self.job_id is not None


class JobService:
    """Persistent job service: queue, worker pool, result store.

    Args:
        jobs: pool size — for sharded workloads, size this to the
            shard count so every shard's scenarios stream through a
            dedicated long-lived worker.
        timeout_s: per-job wall-clock budget before the worker is
            killed and respawned.
        host, port: TCP bind address for :meth:`serve_forever`
            (``port=0`` picks an ephemeral port, published via
            :attr:`address` once :meth:`start` ran).

    Programmatic surface: :meth:`submit` / :meth:`result` /
    :meth:`status` / :meth:`shutdown`; the socket server simply maps
    the wire ops onto these.
    """

    def __init__(self, jobs: int = 2, timeout_s: float = 120.0,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if jobs < 1:
            raise ValueError(f"need >= 1 worker, got {jobs}")
        if timeout_s <= 0:
            raise ValueError(f"non-positive timeout {timeout_s}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._ctx = start_context()
        self._workers: List[_Worker] = []
        self._queue: List[Tuple[str, int]] = []
        self._store: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._torn_down = False
        self._dispatcher: Optional[threading.Thread] = None
        self._listener: Optional[socket.socket] = None
        self._seq = 0
        self.stats = {"submitted": 0, "completed": 0, "errors": 0,
                      "crashes": 0, "timeouts": 0, "retries": 0,
                      "workers_spawned": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobService":
        """Spawn the worker pool and the dispatcher thread; binds the
        TCP listener (``address`` becomes the dial target)."""
        if self._dispatcher is not None:
            return self
        for index in range(self.jobs):
            self._workers.append(self._spawn(f"worker{index}"))
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen()
        self._listener.settimeout(0.25)
        self.address = self._listener.getsockname()[:2]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return self

    def _spawn(self, name: str) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_service_worker_main, args=(child_conn,),
            name=f"serve-worker-{self.stats['workers_spawned']}",
            daemon=True)
        process.start()
        child_conn.close()
        self.stats["workers_spawned"] += 1
        return _Worker(process, parent_conn, name)

    def shutdown(self) -> None:
        """Stop dispatching, cancel queued jobs, reap the pool
        (idempotent).

        Guarded by its own flag, not ``_stop``: a wire-level shutdown
        request trips ``_stop`` first (to break the accept loop) and
        the actual teardown still has to run exactly once after it.
        """
        if self._torn_down:
            return
        self._torn_down = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        with self._lock:
            for job_id, _ in self._queue:
                record = self._store.get(job_id)
                if record is not None and record["status"] == "queued":
                    record["status"] = "cancelled"
            self._queue.clear()
            self._done.notify_all()
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():  # pragma: no cover
                    worker.process.kill()
                    worker.process.join()
        self._workers = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "JobService":
        """Start the service on scope entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Shut the service down on scope exit, exception or not."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Programmatic API
    # ------------------------------------------------------------------
    def submit(self, run: Dict[str, Any]) -> str:
        """Enqueue one job (a :meth:`~repro.sweep.RunSpec.as_dict`
        payload, validated before queueing); returns the job id."""
        spec = RunSpec.from_dict(dict(run))  # raises on bad payloads
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("service is shut down")
            self._seq += 1
            job_id = f"job-{self._seq}"
            self._store[job_id] = {"job_id": job_id,
                                   "name": spec.name,
                                   "status": "queued",
                                   "run": spec.as_dict(),
                                   "attempts": 0,
                                   "result": None}
            self._queue.append((job_id, 1))
            self.stats["submitted"] += 1
        return job_id

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """The job record; with *wait*, block until it leaves the
        queue/running states (or *timeout* seconds elapse)."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._lock:
            record = self._store.get(job_id)
            if record is None:
                raise KeyError(f"unknown job id {job_id!r}")
            while wait and record["status"] in ("queued", "running"):
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._done.wait(timeout=0.25 if remaining is None
                                else min(0.25, remaining))
            return dict(record)

    def status(self) -> Dict[str, Any]:
        """Service-level counters plus the per-state job census."""
        with self._lock:
            census: Dict[str, int] = {}
            for record in self._store.values():
                census[record["status"]] = \
                    census.get(record["status"], 0) + 1
            return {"jobs": self.jobs,
                    "timeout_s": self.timeout_s,
                    "queue_depth": len(self._queue),
                    "census": census,
                    "stats": dict(self.stats)}

    def stats_snapshot(self) -> Dict[str, Any]:
        """The live-introspection STATS payload: queue depth, the
        per-worker counters, running job ids, and the merged
        telemetry of every completed job."""
        with self._lock:
            workers = []
            for worker in self._workers:
                workers.append({
                    "name": worker.name,
                    "alive": worker.process.is_alive(),
                    "busy": worker.busy,
                    "job": worker.job_id,
                    "attempt": worker.attempt,
                    "counters": dict(worker.counters),
                })
            running = sorted(
                record["job_id"]
                for record in self._store.values()
                if record["status"] == "running")
            return {
                "queue_depth": len(self._queue),
                "running": running,
                "service": dict(self.stats),
                "workers": workers,
                "telemetry": self._job_telemetry_locked(),
            }

    def _job_telemetry_locked(self) -> Dict[str, Any]:
        """Merge the telemetry every completed job reported (caller
        holds the lock): latency histograms bucket-merge across jobs,
        sync and provenance totals sum — the same semantics
        :func:`repro.obs.merge.merge_telemetry` applies to shard
        payloads."""
        latencies: List[Dict[str, Any]] = []
        sync_totals: Dict[str, int] = {}
        provenance: Dict[str, int] = {}
        trace_records = 0
        jobs = 0
        for record in self._store.values():
            result = record.get("result")
            if record["status"] != "done" \
                    or not isinstance(result, dict):
                continue
            jobs += 1
            if result.get("latency"):
                latencies.append(result["latency"])
            for key, value in (result.get("sync") or {}).items():
                sync_totals[key] = sync_totals.get(key, 0) \
                    + int(value)
            for key, value in (result.get("provenance")
                               or {}).items():
                if key == "sample":
                    provenance[key] = max(provenance.get(key, 1),
                                          int(value))
                else:
                    provenance[key] = provenance.get(key, 0) \
                        + int(value)
            trace_records += int(result.get("trace_records", 0))
        return {
            "jobs": jobs,
            "latency": (merge_histograms(latencies)
                        if latencies else None),
            "sync": sync_totals,
            "provenance": provenance or None,
            "trace_records": trace_records,
        }

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._assign()
            busy = [w for w in self._workers if w.busy]
            if busy:
                _conn_wait([w.conn for w in busy], timeout=0.1)
                for worker in busy:
                    self._collect(worker)
            else:
                time.sleep(0.02)

    def _assign(self) -> None:
        with self._lock:
            for worker in self._workers:
                if not self._queue:
                    return
                if worker.busy:
                    continue
                job_id, attempt = self._queue.pop(0)
                record = self._store[job_id]
                record["status"] = "running"
                record["attempts"] = attempt
                try:
                    worker.conn.send(("job", job_id, record["run"],
                                      attempt))
                except (BrokenPipeError, OSError):
                    # Dead pipe — treat like a crash before work began.
                    self._queue.insert(0, (job_id, attempt))
                    record["status"] = "queued"
                    self._replace(worker)
                    continue
                worker.job_id = job_id
                worker.attempt = attempt
                worker.deadline = time.monotonic() + self.timeout_s

    def _collect(self, worker: _Worker) -> None:
        if not worker.busy:
            return
        if worker.conn.poll():
            try:
                kind, job_id, payload = worker.conn.recv()
            except (EOFError, OSError):
                # The EOF can outrun process reaping — join briefly so
                # the crash detail reports the real exit code.
                worker.process.join(timeout=2.0)
                self._on_crash(worker,
                               {"exitcode": worker.process.exitcode})
                return
            self._settle(worker, kind, job_id, payload)
            return
        if worker.process.exitcode is not None:
            self._on_crash(worker,
                           {"exitcode": worker.process.exitcode})
            return
        if time.monotonic() >= worker.deadline:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join()
            self._on_failure(worker, "timeout",
                             {"timeout_s": self.timeout_s})

    def _settle(self, worker: _Worker, kind: str, job_id: str,
                payload: Dict[str, Any]) -> None:
        with self._lock:
            record = self._store[job_id]
            worker.counters["jobs"] += 1
            if kind == "ok":
                record["status"] = "done"
                record["result"] = payload
                self.stats["completed"] += 1
                worker.counters["ok"] += 1
            else:
                # Deterministic scenario error: full traceback, no
                # retry (the PR 7 sweep policy).
                record["status"] = "error"
                record["result"] = {"detail": payload}
                self.stats["errors"] += 1
                worker.counters["errors"] += 1
            worker.job_id = None
            self._done.notify_all()

    def _on_crash(self, worker: _Worker,
                  detail: Dict[str, Any]) -> None:
        self.stats["crashes"] += 1
        worker.counters["crashes"] += 1
        self._on_failure(worker, "crash", detail)

    def _on_failure(self, worker: _Worker, kind: str,
                    detail: Dict[str, Any]) -> None:
        """Crash/timeout: respawn the worker, retry the job once."""
        if kind == "timeout":
            self.stats["timeouts"] += 1
            worker.counters["timeouts"] += 1
        job_id, attempt = worker.job_id, worker.attempt
        self._replace(worker)
        with self._lock:
            record = self._store[job_id]
            if attempt < MAX_ATTEMPTS:
                self.stats["retries"] += 1
                worker.counters["retries"] += 1
                record["status"] = "queued"
                self._queue.insert(0, (job_id, attempt + 1))
            else:
                record["status"] = kind
                record["result"] = {"detail": detail}
                worker.counters["jobs"] += 1
                self._done.notify_all()

    def _replace(self, worker: _Worker) -> None:
        worker.conn.close()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        replacement = self._spawn(worker.name)
        worker.process = replacement.process
        worker.conn = replacement.conn
        worker.job_id = None

    # ------------------------------------------------------------------
    # Socket front door
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept clients until a ``shutdown`` request (or
        :meth:`shutdown` from another thread); each client connection
        is served by its own thread, one JSON object per line."""
        self.start()
        assert self._listener is not None
        try:
            while not self._stop.is_set():
                try:
                    sock, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_client, args=(sock,),
                    daemon=True)
                thread.start()
        finally:
            self.shutdown()

    def _serve_client(self, sock: socket.socket) -> None:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        try:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    reply = self._handle(json.loads(line))
                except (json.JSONDecodeError, SweepSpecError,
                        KeyError, RuntimeError, TypeError) as exc:
                    reply = {"ok": False,
                             "error": f"{type(exc).__name__}: {exc}"}
                stream.write(json.dumps(reply) + "\n")
                stream.flush()
                if reply.get("bye"):
                    break
        except (BrokenPipeError, ConnectionError, OSError):
            pass
        finally:
            try:
                stream.close()
                sock.close()
            except OSError:
                pass

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "submit":
            job_id = self.submit(request["run"])
            return {"ok": True, "job_id": job_id}
        if op == "result":
            record = self.result(request["job_id"],
                                 wait=bool(request.get("wait", True)),
                                 timeout=request.get("timeout"))
            return {"ok": True, "job": record}
        if op == "status":
            return {"ok": True, "status": self.status()}
        if op == "stats":
            return {"ok": True, "stats": self.stats_snapshot()}
        if op == "shutdown":
            # Reply first, then trip the stop flag: serve_forever's
            # finally block performs the actual teardown.
            self._stop.set()
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


class ServeClient:
    """Python-side client of the serve wire protocol.

    Example::

        with ServeClient(("127.0.0.1", 7453)) as client:
            job_id = client.submit(run_payload)
            record = client.result(job_id, wait=True)
    """

    def __init__(self, address: Tuple[str, int],
                 timeout: Optional[float] = 60.0) -> None:
        self.address = tuple(address)
        self._sock = socket.create_connection(self.address,
                                              timeout=timeout)
        self._stream = self._sock.makefile("rw", encoding="utf-8",
                                           newline="\n")

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._stream.write(json.dumps(request) + "\n")
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ConnectionError(
                f"serve endpoint {self.address} closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(
                f"serve request failed: {reply.get('error')}")
        return reply

    def submit(self, run: Dict[str, Any]) -> str:
        """Submit one run payload; returns the job id."""
        return self._call({"op": "submit", "run": run})["job_id"]

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Fetch (optionally await) one job record."""
        request: Dict[str, Any] = {"op": "result", "job_id": job_id,
                                   "wait": wait}
        if timeout is not None:
            request["timeout"] = timeout
        return self._call(request)["job"]

    def status(self) -> Dict[str, Any]:
        """The service's status snapshot."""
        return self._call({"op": "status"})["status"]

    def stats(self) -> Dict[str, Any]:
        """The live STATS introspection payload (queue depth,
        per-worker counters, merged completed-job telemetry)."""
        return self._call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the service to shut down."""
        self._call({"op": "shutdown"})

    def close(self) -> None:
        """Close the client connection (idempotent)."""
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        """Enter ``with ServeClient(...) as client`` — returns self."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the connection on scope exit."""
        self.close()

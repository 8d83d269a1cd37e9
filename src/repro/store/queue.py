"""SQLite-backed work queue: leases, heartbeats, retries, dead letters.

The py_experimenter-style work table behind assembly-as-a-service: jobs
are rows, workers on any machine ``claim`` an eligible row inside one
``BEGIN IMMEDIATE`` transaction, renew their lease with ``heartbeat``
while computing, and ``complete`` or ``fail`` it.  Every state change is
one SQLite transaction, so a worker killed at *any* instant leaves the
table in a recoverable state:

* killed after ``claim`` — the job stays ``leased`` until its lease
  deadline passes; the next ``claim`` by anyone reaps it back into the
  retry pool (``failed`` with the lease timeout recorded).
* killed before ``complete`` commits — same thing: the attempt is lost,
  the job is not.
* a worker that merely *hangs* loses its lease the same way; if it wakes
  up late its ``complete``/``heartbeat`` raises :class:`LostLease`
  (another worker may own the job now) and it must drop the result.

Job states::

    open ──claim──► leased ──complete──► done
      ▲               │ fail / lease timeout
      │               ▼
      └─backoff──── failed ──attempts ≥ max──► dead

``failed`` jobs become claimable again after a capped exponential backoff
(``backoff_base * 2**(attempts-1)``, capped at ``backoff_cap``); after
``max_attempts`` leases they move to the terminal ``dead`` state (the
dead-letter queue — inspect with ``python -m repro work status``).

The wall clock is injectable (*clock*) so lease/backoff semantics are
unit-testable without sleeping; production uses ``time.time`` because
deadlines must be comparable across worker processes/machines.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs import TraceContext, get_tracer
from repro.store.faults import NO_FAULTS, FaultInjector
from repro.util import require

#: Job states.
OPEN, LEASED, DONE, FAILED, DEAD = "open", "leased", "done", "failed", "dead"
STATES = (OPEN, LEASED, DONE, FAILED, DEAD)

#: States that still need a worker (the drain condition counts these).
PENDING_STATES = (OPEN, LEASED, FAILED)

#: Histogram boundaries for retry-backoff delays (seconds).
BACKOFF_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    kind           TEXT NOT NULL,
    payload        TEXT NOT NULL,
    status         TEXT NOT NULL DEFAULT 'open',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 5,
    owner          TEXT,
    lease_deadline REAL,
    backoff_until  REAL NOT NULL DEFAULT 0,
    result         TEXT,
    error          TEXT,
    trace_id       TEXT,
    parent_span    TEXT,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, backoff_until);
"""

#: Columns added after PR 8 shipped — older queue.db files are migrated
#: in place on open (``ALTER TABLE`` is cheap and idempotent per column).
_MIGRATED_COLUMNS = (
    ("trace_id", "TEXT"),
    ("parent_span", "TEXT"),
)


class QueueError(Exception):
    """Base class of queue usage errors."""


class LostLease(QueueError):
    """The caller no longer owns the job it tried to act on (its lease
    timed out and someone else may hold it now) — drop the result."""


@dataclass(frozen=True)
class Job:
    """One row of the work table.

    ``trace_id``/``parent_span`` are the submitter's serialized
    :class:`~repro.obs.TraceContext`: they are stamped once at submit and
    never change across retries, so a job reclaimed from a crashed worker
    still continues the *original* trace.  ``created_at`` rides along so
    workers can report queue-wait time.
    """

    id: int
    kind: str
    payload: dict
    status: str
    attempts: int
    max_attempts: int
    owner: str | None
    lease_deadline: float | None
    backoff_until: float
    result: dict | None
    error: str | None
    trace_id: str | None = None
    parent_span: str | None = None
    created_at: float = 0.0

    @property
    def context(self) -> TraceContext | None:
        """The submit-time trace context (``None`` for pre-migration rows)."""
        return TraceContext.from_pair(self.trace_id, self.parent_span)


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        id=row["id"],
        kind=row["kind"],
        payload=json.loads(row["payload"]),
        status=row["status"],
        attempts=row["attempts"],
        max_attempts=row["max_attempts"],
        owner=row["owner"],
        lease_deadline=row["lease_deadline"],
        backoff_until=row["backoff_until"],
        result=json.loads(row["result"]) if row["result"] else None,
        error=row["error"],
        trace_id=row["trace_id"],
        parent_span=row["parent_span"],
        created_at=row["created_at"],
    )


class JobQueue:
    """Crash-safe job table in one SQLite file.

    Parameters
    ----------
    path:
        Database file (created on first use); WAL mode, safe for many
        concurrent worker processes on one filesystem.
    backoff_base / backoff_cap:
        Retry delay of a failed job: ``min(cap, base * 2**(attempts-1))``
        seconds after the failure.
    clock:
        Injectable time source (``time.time``); tests advance it manually.
    faults:
        Optional injector firing ``queue.claim.crash`` (right after a
        lease commits — the stale-lease scenario) and
        ``queue.complete.crash`` (before the completion commits).
    """

    def __init__(
        self,
        path,
        backoff_base: float = 1.0,
        backoff_cap: float = 60.0,
        clock: Callable[[], float] = time.time,
        faults: FaultInjector | None = None,
    ) -> None:
        require(backoff_base >= 0.0, "backoff_base must be >= 0")
        require(backoff_cap >= backoff_base, "backoff_cap must be >= backoff_base")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.clock = clock
        self.faults = faults if faults is not None else NO_FAULTS
        self._db = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA busy_timeout=30000")
        self._db.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Add post-PR-8 columns to pre-existing queue files in place."""
        have = {
            row["name"] for row in self._db.execute("PRAGMA table_info(jobs)")
        }
        for column, sql_type in _MIGRATED_COLUMNS:
            if column not in have:
                self._db.execute(
                    f"ALTER TABLE jobs ADD COLUMN {column} {sql_type}"
                )

    def close(self) -> None:
        self._db.close()

    def _count(self, name: str, value: float = 1.0) -> None:
        get_tracer().count(name, value)

    # -- producers ---------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict,
        max_attempts: int = 5,
        context: TraceContext | None = None,
    ) -> int:
        """Insert one ``open`` job; returns its id.

        The job row is stamped with a trace *context*: the one passed in,
        else the current tracer's (the enclosing span becomes the job's
        remote parent), else a fresh root context — every job carries a
        ``trace_id`` even when submitted with tracing off, so a later
        fleet merge can still group its spans.
        """
        require(max_attempts >= 1, "max_attempts must be >= 1")
        tracer = get_tracer()
        with tracer.span("queue.submit", kind=kind) as span:
            if context is None:
                context = tracer.current_context()
                if context.span_id:
                    # The submit span itself is the natural remote parent;
                    # stamp its context id so the fleet merge can link
                    # worker job spans back to this exact span.
                    span.set(ctx=context.span_id)
            trace_id, parent_span = context.to_pair()
            now = self.clock()
            cur = self._db.execute(
                "INSERT INTO jobs (kind, payload, status, max_attempts, "
                "trace_id, parent_span, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (kind, json.dumps(payload, sort_keys=True), OPEN, max_attempts,
                 trace_id, parent_span, now, now),
            )
            job_id = int(cur.lastrowid)
            span.set(job=job_id, trace_id=trace_id)
        self._count("queue.submits")
        return job_id

    # -- workers -----------------------------------------------------------

    def claim(self, owner: str, lease_seconds: float = 30.0) -> Job | None:
        """Lease the oldest eligible job for *owner*; ``None`` when nothing
        is currently claimable.

        One transaction does three things: reap expired leases back into
        the retry pool (counting the lost attempt), promote that and any
        other ``failed`` job whose backoff has passed, and lease the
        oldest ``open`` job.  Eligibility of failed jobs respects the
        exponential backoff; jobs out of attempts go to ``dead`` instead
        of back to the pool.
        """
        require(lease_seconds > 0.0, "lease_seconds must be > 0")
        now = self.clock()
        with get_tracer().span("queue.claim", owner=owner) as span:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                self._reap_expired_locked(now)
                row = self._db.execute(
                    "SELECT * FROM jobs WHERE (status = ? OR (status = ? AND "
                    "backoff_until <= ?)) ORDER BY id LIMIT 1",
                    (OPEN, FAILED, now),
                ).fetchone()
                if row is None:
                    self._db.execute("COMMIT")
                    span.set(claimed=False)
                    return None
                self._db.execute(
                    "UPDATE jobs SET status = ?, owner = ?, attempts = attempts + 1, "
                    "lease_deadline = ?, updated_at = ? WHERE id = ?",
                    (LEASED, owner, now + lease_seconds, now, row["id"]),
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            # Stale-lease scenario: the lease is durably committed, then the
            # worker dies before doing any work.
            self.faults.fire("queue.claim.crash")
            job = self.get(int(row["id"]))
            span.set(claimed=True, job=job.id, attempt=job.attempts)
            self._count("queue.claims")
            return job

    def _reap_expired_locked(self, now: float) -> int:
        """Move lease-expired jobs to ``failed`` (or ``dead``) — caller
        holds the transaction."""
        rows = self._db.execute(
            "SELECT id, attempts, max_attempts FROM jobs WHERE status = ? AND "
            "lease_deadline < ?",
            (LEASED, now),
        ).fetchall()
        for row in rows:
            self._retry_or_dead_locked(
                row["id"], row["attempts"], row["max_attempts"],
                "lease expired (worker crashed or hung)", now,
            )
        if rows:
            self._count("queue.reaped", len(rows))
        return len(rows)

    def _retry_or_dead_locked(
        self, job_id: int, attempts: int, max_attempts: int, error: str, now: float
    ) -> None:
        if attempts >= max_attempts:
            self._db.execute(
                "UPDATE jobs SET status = ?, owner = NULL, lease_deadline = NULL, "
                "error = ?, updated_at = ? WHERE id = ?",
                (DEAD, error, now, job_id),
            )
            self._count("queue.dead_letters")
        else:
            backoff = min(
                self.backoff_cap, self.backoff_base * (2.0 ** max(0, attempts - 1))
            )
            self._db.execute(
                "UPDATE jobs SET status = ?, owner = NULL, lease_deadline = NULL, "
                "error = ?, backoff_until = ?, updated_at = ? WHERE id = ?",
                (FAILED, error, now + backoff, now, job_id),
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.observe(
                    "queue.backoff_seconds", backoff, boundaries=BACKOFF_BUCKETS
                )

    def _owned_row(self, job_id: int, owner: str) -> sqlite3.Row:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise QueueError(f"no such job: {job_id}")
        if row["status"] != LEASED or row["owner"] != owner:
            raise LostLease(
                f"job {job_id} is {row['status']} owned by {row['owner']!r}, "
                f"not leased by {owner!r}"
            )
        return row

    def heartbeat(self, job_id: int, owner: str, lease_seconds: float = 30.0) -> None:
        """Extend the caller's lease; raises :class:`LostLease` when the
        lease was reaped (the worker must abandon the job)."""
        now = self.clock()
        with get_tracer().span("queue.heartbeat", job=job_id) as span:
            self._db.execute("BEGIN IMMEDIATE")
            committed = False
            try:
                row = self._owned_row(job_id, owner)
                if row["lease_deadline"] is not None and row["lease_deadline"] < now:
                    # Expired but not yet reaped: losing it here keeps the
                    # invariant that an expired lease is never silently renewed.
                    self._retry_or_dead_locked(
                        job_id, row["attempts"], row["max_attempts"],
                        "lease expired (heartbeat too late)", now,
                    )
                    self._db.execute("COMMIT")
                    committed = True
                    span.set(lost=True)
                    raise LostLease(f"job {job_id}: lease expired before heartbeat")
                self._db.execute(
                    "UPDATE jobs SET lease_deadline = ?, updated_at = ? WHERE id = ?",
                    (now + lease_seconds, now, job_id),
                )
                self._db.execute("COMMIT")
                committed = True
                self._count("queue.heartbeats")
            except BaseException:
                if not committed:
                    self._db.execute("ROLLBACK")
                raise

    def complete(self, job_id: int, owner: str, result: dict | None = None) -> None:
        """Mark the caller's leased job ``done`` with an optional result."""
        # Crash-before-commit point: the work happened, the completion is
        # lost — the job must be re-leased and recomputed after the lease
        # times out (cheaply, thanks to the warm artifact store).
        self.faults.fire("queue.complete.crash")
        now = self.clock()
        with get_tracer().span("queue.complete", job=job_id):
            self._db.execute("BEGIN IMMEDIATE")
            try:
                self._owned_row(job_id, owner)
                self._db.execute(
                    "UPDATE jobs SET status = ?, owner = NULL, lease_deadline = NULL, "
                    "result = ?, error = NULL, updated_at = ? WHERE id = ?",
                    (DONE, json.dumps(result or {}, sort_keys=True), now, job_id),
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        self._count("queue.completions")

    def fail(self, job_id: int, owner: str, error: str) -> None:
        """Record a failed attempt: retry with backoff, or dead-letter."""
        now = self.clock()
        with get_tracer().span("queue.fail", job=job_id):
            self._db.execute("BEGIN IMMEDIATE")
            try:
                row = self._owned_row(job_id, owner)
                self._retry_or_dead_locked(
                    job_id, row["attempts"], row["max_attempts"], error, now
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        self._count("queue.failures")

    # -- introspection -----------------------------------------------------

    def get(self, job_id: int) -> Job:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise QueueError(f"no such job: {job_id}")
        return _row_to_job(row)

    def jobs(self, status: str | None = None) -> list[Job]:
        if status is None:
            rows = self._db.execute("SELECT * FROM jobs ORDER BY id").fetchall()
        else:
            require(status in STATES, f"unknown status {status!r}")
            rows = self._db.execute(
                "SELECT * FROM jobs WHERE status = ? ORDER BY id", (status,)
            ).fetchall()
        return [_row_to_job(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """``{status: n}`` over all states (zeros included)."""
        out = {s: 0 for s in STATES}
        for row in self._db.execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ):
            out[row["status"]] = row["n"]
        return out

    def pending(self) -> int:
        """Jobs still needing a worker (open + leased + failed-in-backoff)."""
        counts = self.counts()
        return sum(counts[s] for s in PENDING_STATES)

    def summary(self) -> str:
        counts = self.counts()
        total = sum(counts.values())
        parts = ", ".join(f"{counts[s]} {s}" for s in STATES)
        return f"queue: {total} job(s) — {parts}"


def encode_result(result: Any) -> dict:
    """JSON-safe shallow copy of a worker result dict."""
    return json.loads(json.dumps(result, sort_keys=True, default=float))


__all__ = [
    "Job",
    "JobQueue",
    "QueueError",
    "LostLease",
    "OPEN",
    "LEASED",
    "DONE",
    "FAILED",
    "DEAD",
    "STATES",
    "PENDING_STATES",
    "encode_result",
]

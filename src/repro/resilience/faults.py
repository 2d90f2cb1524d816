"""Deterministic fault injection: ``$REPRO_FAULTS``.

Recovery code that is only exercised by mocks is recovery code that does
not work.  This module plants *real* faults — a worker process calling
``os._exit`` mid-job, a torn cache entry, a numpy kernel blowing up — at
fixed injection points, driven by a declarative spec:

    REPRO_FAULTS="worker_crash:job=mult4:count=1,cache_corrupt:count=1"

Grammar
-------
``SPEC := DIRECTIVE ("," DIRECTIVE)*`` and
``DIRECTIVE := POINT (":" KEY "=" VALUE)*`` with points

========================  =====================================================
``worker_crash``          worker entry: ``os._exit(13)`` — kills the process,
                          breaking the pool (no Python cleanup runs)
``worker_hang``           worker entry: sleep ``seconds`` (default 3600) —
                          exercises the supervisor's ``job`` deadline
``job_fail``              worker entry: raise a transient (default) or
                          permanent fault, per ``mode=`` — exercises the
                          retry taxonomy without killing anything
``cache_corrupt``         disk-cache load: the stored blob is garbled before
                          decoding — must degrade to a miss, never to data
``cache_io``              cache I/O: an ``OSError`` in the disk-cache store
                          (the entry must simply not persist) or in a
                          remote-cache request (the client must degrade
                          to direct disk access)
``kernel_fail``           numpy-kernel dispatch: raise inside ``simulate`` —
                          must demote the rest of the job to the bigint
                          reference engine (one fire per job: a demoted
                          job and a simulation memo hit skip the hook,
                          so ``count=2`` demotes a second job)
========================  =====================================================

Keys: ``job=NAME`` restricts a directive to one benchmark/source;
``count=N`` caps total fires (default 1); ``seconds=``/``mode=`` as
above.

Determinism across processes
----------------------------
A fault budget must hold globally, not per process: a crashed worker's
*retry* runs in a fresh process that re-reads ``$REPRO_FAULTS``, and
with a per-process counter it would crash again, forever.  Fires are
therefore claimed through a filesystem **ledger**: one ``O_EXCL``-created
slot file per fire under ``$REPRO_FAULTS_LEDGER`` (auto-created and
exported when unset, so pool workers inherit it).  Exactly one process
wins each slot — ``count=1`` means one fire per ledger, whoever gets
there first, and a retried job sails through.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import events
from .errors import FaultInjected, PermanentFault

#: Environment variable holding the fault spec.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Environment variable naming the shared fire ledger directory.
LEDGER_ENV_VAR = "REPRO_FAULTS_LEDGER"

#: The valid injection points (see module doc).
POINTS: Tuple[str, ...] = (
    "worker_crash",
    "worker_hang",
    "job_fail",
    "cache_corrupt",
    "cache_io",
    "kernel_fail",
)

#: Exit status of an injected worker crash (visible in supervisor logs).
CRASH_EXIT_CODE = 13


@dataclass(frozen=True)
class FaultDirective:
    """One parsed directive of a ``$REPRO_FAULTS`` spec."""

    point: str
    job: Optional[str] = None
    count: int = 1
    seconds: float = 3600.0
    mode: str = "transient"
    #: Position in the spec — distinguishes two otherwise-identical
    #: directives in the ledger.
    index: int = 0

    def matches(self, job: Optional[str]) -> bool:
        return self.job is None or self.job == job

    def ledger_id(self) -> str:
        tag = f"{self.index}-{self.point}"
        if self.job is not None:
            tag += "-" + re.sub(r"[^A-Za-z0-9_.-]", "_", self.job)[:48]
        return tag


def parse_faults(spec: str) -> List[FaultDirective]:
    """Parse a spec string into directives (see module doc for grammar)."""
    directives: List[FaultDirective] = []
    for index, chunk in enumerate(spec.split(",")):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        point = fields[0].strip()
        if point not in POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; "
                f"choose one of: {', '.join(POINTS)}"
            )
        kwargs = {}
        for field in fields[1:]:
            key, eq, value = field.partition("=")
            key = key.strip()
            if not eq or key not in ("job", "count", "seconds", "mode"):
                raise ValueError(
                    f"bad fault field {field!r} in {chunk!r}; expected "
                    "job=NAME, count=N, seconds=S, or mode=MODE"
                )
            if key == "count":
                kwargs["count"] = int(value)
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            elif key == "mode":
                if value not in ("transient", "permanent"):
                    raise ValueError(
                        f"bad fault mode {value!r}; expected "
                        "'transient' or 'permanent'"
                    )
                kwargs["mode"] = value
            else:
                kwargs["job"] = value
        directives.append(FaultDirective(point=point, index=index, **kwargs))
    return directives


class FaultPlan:
    """A parsed spec plus the shared fire ledger claiming its budget."""

    def __init__(
        self,
        directives: List[FaultDirective],
        ledger: Optional[str] = None,
    ) -> None:
        self.directives = directives
        if ledger is not None:
            # A missing ledger directory must not silently demote the
            # budget to per-process counters — that re-fires a spent
            # count=1 crash in every retried worker, forever.
            try:
                os.makedirs(ledger, exist_ok=True)
            except OSError:
                ledger = None
        self.ledger = ledger
        self._lock = threading.Lock()
        # In-memory fallback when no ledger directory is usable: the
        # budget then only holds within this process.
        self._local_fires: dict = {}

    @classmethod
    def parse(cls, spec: str, ledger: Optional[str] = None) -> "FaultPlan":
        return cls(parse_faults(spec), ledger=ledger)

    def _claim(self, directive: FaultDirective) -> bool:
        """Atomically claim one of the directive's fire slots.

        Exactly one process system-wide wins each slot file; a spent
        budget (every slot claimed) returns ``False``.
        """
        if self.ledger is not None:
            tag = directive.ledger_id()
            usable = True
            for slot in range(directive.count):
                path = os.path.join(self.ledger, f"{tag}.{slot}")
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.close(fd)
                    return True
                except FileExistsError:
                    continue
                except OSError:
                    usable = False  # fall through to the local budget
                    break
            if usable:
                # Every slot is claimed: the budget is globally spent.
                # Falling through to the per-process counter here would
                # re-fire the fault in every retried worker, forever.
                return False
        with self._lock:
            fired = self._local_fires.get(directive.index, 0)
            if fired >= directive.count:
                return False
            self._local_fires[directive.index] = fired + 1
            return True

    def fire(
        self, point: str, job: Optional[str] = None
    ) -> Optional[FaultDirective]:
        """Claim and return a directive due at *point* for *job*, if any.

        Every fire is recorded as a ``fault_injected`` event before the
        site acts on it (so even a crash leaves a parent-side trace when
        the parent shares the event log, and tests can assert fires).
        """
        for directive in self.directives:
            if directive.point != point or not directive.matches(job):
                continue
            if self._claim(directive):
                events.record(
                    "fault_injected",
                    job=job,
                    point=point,
                    directive=directive.ledger_id(),
                )
                return directive
        return None


def unfired(spec: str, ledger: str) -> List[Tuple[FaultDirective, int]]:
    """The directives of *spec* that fired fewer than ``count`` times
    in *ledger*, each with its number of fires.

    A plan whose injection site a run no longer reaches passes that run
    silently; a chaos run checks its ledger with this instead.
    """
    claimed = set(os.listdir(ledger)) if os.path.isdir(ledger) else set()
    short = []
    for directive in parse_faults(spec):
        tag = directive.ledger_id()
        fires = sum(f"{tag}.{slot}" in claimed for slot in range(directive.count))
        if fires < directive.count:
            short.append((directive, fires))
    return short


# -- ambient plan ------------------------------------------------------

_CACHE_LOCK = threading.Lock()
_CACHED: Optional[Tuple[Tuple[str, Optional[str]], FaultPlan]] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan described by ``$REPRO_FAULTS``, or ``None``.

    The parsed plan is cached per ``(spec, ledger)`` environment value.
    When a spec is active but no ledger is configured, a fresh ledger
    directory is created and **exported** through ``$REPRO_FAULTS_LEDGER``
    so worker processes spawned afterwards share this process's fire
    budget — the runner touches this before building any pool.
    """
    global _CACHED
    spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if not spec:
        return None
    ledger = os.environ.get(LEDGER_ENV_VAR, "").strip() or None
    with _CACHE_LOCK:
        if _CACHED is not None and _CACHED[0] == (spec, ledger):
            return _CACHED[1]
        if ledger is None:
            try:
                ledger = tempfile.mkdtemp(prefix="repro-faults-")
                os.environ[LEDGER_ENV_VAR] = ledger
            except OSError:
                ledger = None  # in-memory budget only
        plan = FaultPlan.parse(spec, ledger=ledger)
        _CACHED = ((spec, ledger), plan)
        return plan


def inject(point: str, job: Optional[str] = None) -> Optional[FaultDirective]:
    """Fire-or-pass at an injection point (cheap no-op without a spec).

    Returns the claimed directive for the *site* to act on — this module
    never raises or exits by itself except through the dedicated helpers
    below.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.fire(point, job)


def worker_entry(job: Optional[str]) -> None:
    """The worker-entrypoint injection site (crash, hang, job failure).

    Called at the top of every job execution — in pool workers *and* in
    the serial path, so ``job_fail`` directives exercise the retry
    taxonomy identically in both.  ``worker_crash`` uses ``os._exit``:
    no exception, no cleanup, exactly what a segfault or OOM kill looks
    like to the pool.
    """
    if inject("worker_crash", job) is not None:
        os._exit(CRASH_EXIT_CODE)
    directive = inject("worker_hang", job)
    if directive is not None:
        time.sleep(directive.seconds)
    _job_fail(job)


def serial_entry(job: Optional[str]) -> None:
    """The serial-path injection site: job failures only.

    ``worker_crash``/``worker_hang`` target *worker processes*, where a
    supervisor survives them; fired in the driving process they would
    kill or wedge the whole run — a catastrophe, not a recovery path —
    so the serial entry only exercises the retry taxonomy.
    """
    _job_fail(job)


def _job_fail(job: Optional[str]) -> None:
    directive = inject("job_fail", job)
    if directive is not None:
        if directive.mode == "permanent":
            raise PermanentFault(
                f"injected permanent fault on job {job!r}"
            )
        raise FaultInjected("job_fail", job or "")


def corrupt_blob(blob: bytes, job: Optional[str]) -> bytes:
    """The disk-cache *load* injection site: maybe garble *blob*.

    Flips bytes in the middle of the payload so the entry's integrity
    digest no longer matches — the loader must treat it as a miss.
    """
    if inject("cache_corrupt", job) is None:
        return blob
    middle = len(blob) // 2
    return blob[:middle] + bytes(b ^ 0xFF for b in blob[middle:middle + 8]) + blob[middle + 8:]


def store_io_fault(job: Optional[str]) -> None:
    """The disk-cache *store* injection site: maybe raise ``OSError``."""
    if inject("cache_io", job) is not None:
        raise OSError("injected cache I/O fault")


def remote_io_fault(job: Optional[str]) -> None:
    """The remote-cache *request* injection site: maybe raise ``OSError``.

    Shares the ``cache_io`` point with the disk store — both are "the
    cache's I/O path failed" — but fires in the
    :class:`repro.cachesvc.RemoteCache` client before the socket, so
    the client must degrade to direct disk access exactly as it would
    for a dead server.
    """
    if inject("cache_io", job) is not None:
        raise OSError("injected remote-cache I/O fault")


def kernel_fault(job: Optional[str] = None) -> None:
    """The kernel-dispatch injection site: maybe raise inside simulate."""
    if inject("kernel_fail", job) is not None:
        raise FaultInjected("kernel_fail", job or "")

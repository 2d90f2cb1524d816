#!/usr/bin/env python3
"""Fault-tolerant experiment execution: the ``repro.resilience`` layer.

A 40-benchmark sweep that dies at benchmark 39 because one worker
process was OOM-killed is a wasted night.  The resilience layer makes
the harness survive exactly that class of failure — and proves it, by
*injecting real faults* and recovering from them:

1. a transient job failure, retried under the deterministic
   exponential-backoff policy;
2. a worker process calling ``os._exit`` mid-job, which breaks the
   whole process pool — the supervisor respawns it and resubmits only
   the unfinished jobs;
3. a wall-clock stage budget stopping a compile at its next checkpoint;
4. the ``run_manifest.json`` provenance sidecars written next to every
   persisted experiment artefact, carrying the recovery history and
   re-verifiable artefact digests.

Everything is driven by the same knobs the CLI exposes:
``$REPRO_FAULTS`` (fault spec), ``--timeout`` / ``$REPRO_TIMEOUT``
(stage budgets), and ``repro manifest show|verify``.

Run:  python examples/resilience.py
"""

import os
import tempfile

from repro import Flow, Session
from repro.resilience import (
    RetryPolicy,
    StageTimeoutError,
    events,
    iter_manifests,
    verify_manifest,
)

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")
BENCHMARKS = ["adder", "dec", "ctrl"]


def arm_faults(spec: str, ledger: str) -> None:
    """Point the ambient fault plan at *spec* with a fresh fire budget."""
    from repro.resilience import faults

    os.environ[faults.FAULTS_ENV_VAR] = spec
    os.environ[faults.LEDGER_ENV_VAR] = ledger
    faults._CACHED = None


def disarm_faults() -> None:
    from repro.resilience import faults

    os.environ.pop(faults.FAULTS_ENV_VAR, None)
    os.environ.pop(faults.LEDGER_ENV_VAR, None)
    faults._CACHED = None


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-resilience-")
    cache_dir = os.path.join(workdir, "cache")

    # -- 1. a transient job failure, retried -------------------------
    print("1. Transient failure -> deterministic retry")
    print("   REPRO_FAULTS=job_fail:job=dec:count=1\n")
    arm_faults(
        "job_fail:job=dec:count=1", os.path.join(workdir, "ledger1")
    )
    with events.capture() as log:
        Session(preset=PRESET).run_matrix(
            BENCHMARKS, ["naive"],
        )
    for event in log:
        if event["kind"] == "retry":
            print(f"   retried {event['job']!r} (attempt "
                  f"{event['attempt']}): {event['error']}")
    print("   matrix completed despite the injected failure\n")

    # -- 2. a dying worker process, pool respawned -------------------
    print("2. Worker crash (os._exit mid-job) -> pool respawn + retry")
    print("   REPRO_FAULTS=worker_crash:job=dec:count=1\n")
    arm_faults(
        "worker_crash:job=dec:count=1", os.path.join(workdir, "ledger2")
    )
    with events.capture() as log:
        evaluations = Session(
            preset=PRESET, cache_dir=cache_dir
        ).run_matrix(BENCHMARKS, ["naive"], parallel=2)
    disarm_faults()
    for event in log:
        if event["kind"] == "pool_respawn":
            print(f"   pool respawned; resubmitted jobs: {event['jobs']}")
        if event["kind"] == "retry":
            print(f"   retried {event['job']!r}: {event['error']}")
    print(f"   all {len(evaluations)} benchmarks completed\n")

    # -- 3. a wall-clock budget on one pipeline stage ----------------
    print("3. Stage timeout: a compile that outruns its budget stops")
    print('   (Session(timeouts="compile=120,job=600") / --timeout /'
          " $REPRO_TIMEOUT)\n")
    budgeted = Session(preset=PRESET, timeouts="compile=1e-6")
    try:
        Flow.for_job("adder", "ea-full", session=budgeted).run()
    except StageTimeoutError as error:
        print(f"   interrupted: {error}")
    print("   (timeouts are permanent failures: a deterministic stage"
          " that blew its budget once would blow it again)\n")

    # -- 4. run manifests: provenance + recovery history -------------
    print("4. Run manifests next to every persisted artefact")
    print("   (repro manifest show / repro manifest verify)\n")
    checked = problems = 0
    shown = 0
    for path, manifest in iter_manifests(cache_dir):
        checked += 1
        problems += len(verify_manifest(path, manifest))
        if shown < 3:
            shown += 1
            kinds = sorted({
                e.get("kind", "?") for e in manifest.get("events", [])
            }) or ["-"]
            print(f"   {manifest.get('benchmark', '?'):8s} "
                  f"config={manifest.get('config', '?'):10s} "
                  f"sha256={manifest['artefact']['sha256'][:12]}... "
                  f"events={kinds}")
    print(f"\n   {checked} manifest(s), {problems} verification "
          "problem(s)")
    print("   (the crashed job's manifests carry its retry history;"
          " tampering")
    print("   with an artefact makes 'repro manifest verify' fail"
          " loudly)")

    # The retry policy itself is deterministic and inspectable:
    policy = RetryPolicy()
    delays = [round(policy.delay(n, key=("dec",)), 4) for n in (1, 2, 3)]
    print(f"\n   retry backoff for job 'dec': {delays} s"
          " (SHA-256-keyed jitter, no randomness)")


if __name__ == "__main__":
    main()

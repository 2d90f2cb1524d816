#!/usr/bin/env python3
"""Compilation-as-a-service: the ``repro.serve`` REST front.

The batch pipeline behind ``repro table1`` also runs as a long-lived
service: one warm :class:`~repro.flow.Session`, a background job queue,
and a dependency-free HTTP API on the stdlib ``http.server``.  This
walkthrough starts an in-process server on an ephemeral port and plays
a full client session against it with nothing but ``urllib``:

1. submit a compilation job (``POST /jobs``) and poll it to completion;
2. stream the pipeline's per-stage progress as NDJSON events;
3. fetch the compiled RM3 program and its provenance manifest —
   re-verified server-side against the artefact on disk;
4. submit the same job twice more: a duplicate coalesces onto the
   in-flight compile (or, if it arrives late, hits the warm cache) and
   gets the identical artefact, and the warm repeat is a pure cache hit
   (``disk.misses == 0``, every stage event ``cached``);
5. read the service health counters (``GET /stats``) and stop the
   server over HTTP.

The same API comes up standalone with ``python -m repro serve``.
Run-dependent details (the port, whether the duplicate coalesced) go to
stderr, so stdout is the same on every run.

Run:  python examples/serve.py
"""

import json
import os
import sys
import tempfile
import threading
import urllib.request

from repro import Session, create_server

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")


def get(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        body = response.read().decode("utf-8")
    if "json" in response.headers.get("Content-Type", ""):
        if "ndjson" in response.headers["Content-Type"]:
            return [json.loads(line) for line in body.splitlines()]
        return json.loads(body)
    return body


def post(url: str, payload=None):
    data = json.dumps(payload or {}).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def main() -> None:
    cache_dir = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(tempfile.mkdtemp(prefix="repro-serve-"), "cache"),
    )
    session = Session(preset=PRESET, cache_dir=cache_dir)

    # Ephemeral port; inline executors keep the example single-process.
    server = create_server(
        "127.0.0.1", 0, session=session, workers=2,
        isolate=False, allow_shutdown=True,
    )
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = server.url
    print(f"repro.serve up at {base}", file=sys.stderr)
    print(f"repro.serve up (preset={PRESET})\n")

    # -- 1. submit and poll ------------------------------------------
    print("1. POST /jobs {'source': 'adder', 'config': 'ea-full'}")
    ticket = post(f"{base}/jobs", {
        "source": "adder", "config": "ea-full", "verify": 16,
    })
    job_id = ticket["id"]
    print(f"   -> {ticket['status']} as {job_id}")
    server.store.wait_terminal(job_id, timeout=600)
    job = get(f"{base}/jobs/{job_id}")
    result = job["result"]
    print(
        f"   done: {result['instructions']} instructions on "
        f"{result['rrams']} RRAMs, max writes/device "
        f"{result['stats']['max_writes']}\n"
    )

    # -- 2. the per-stage event feed ---------------------------------
    print("2. GET /jobs/<id>/events (NDJSON)")
    for event in get(f"{base}/jobs/{job_id}/events?timeout=5"):
        if event["kind"].startswith("stage"):
            cached = " (cached)" if event.get("cached") else ""
            print(f"   {event['kind']:<12} {event['stage']}{cached}")
    print()

    # -- 3. artefact + verified provenance ---------------------------
    print("3. GET /jobs/<id>/artifact and /manifest")
    artifact = get(f"{base}/jobs/{job_id}/artifact")
    print(f"   artifact: {len(artifact.splitlines())} program lines")
    manifest = get(f"{base}/jobs/{job_id}/manifest")
    verdict = "OK" if not manifest["problems"] else manifest["problems"]
    print(f"   manifest: digests re-verified -> {verdict}\n")

    # -- 4. duplicates coalesce; repeats are cache hits --------------
    print("4. duplicate + repeat submissions")
    body = {"source": "ctrl", "config": "ea-full", "verify": 16}
    first = post(f"{base}/jobs", body)
    twin = post(f"{base}/jobs", body)  # identical & in flight
    if twin.get("coalesced_with"):
        print(f"   {twin['id']} coalesced with {twin['coalesced_with']}",
              file=sys.stderr)
    else:  # first finished before the twin arrived: still one compile
        print(f"   {first['id']} finished before {twin['id']} was queued",
              file=sys.stderr)
    for ticket in (first, twin):
        server.store.wait_terminal(ticket["id"], timeout=600)
    same = get(f"{base}/jobs/{first['id']}/artifact") == get(
        f"{base}/jobs/{twin['id']}/artifact"
    )
    print(f"   twin artefact identical: {same}")
    repeat = post(f"{base}/jobs", body)  # warm: pure cache hit
    server.store.wait_terminal(repeat["id"], timeout=600)
    counters = get(f"{base}/jobs/{repeat['id']}")["counters"]
    print(f"   warm repeat counters: {counters}\n")

    # -- 5. health + shutdown ----------------------------------------
    print("5. GET /stats, POST /shutdown")
    stats = get(f"{base}/stats")
    print(
        f"   jobs={stats['jobs']['done']} done, "
        f"disk entries={stats['disk']['entries']}"
    )
    print(f"   ({stats['jobs']['coalesced']} coalesced)", file=sys.stderr)
    print(f"   {post(f'{base}/shutdown')['status']}")
    server.close()


if __name__ == "__main__":
    main()

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import socket
import sys

import pytest

from repro.mig.graph import Mig
from repro.mig.kernel import get_kernel
from repro.mig.signal import complement


def make_random_mig(
    num_pis: int,
    num_gates: int,
    seed: int,
    *,
    complement_prob: float = 0.3,
    num_pos: int = None,
    use_strash: bool = True,
) -> Mig:
    """Deterministic random MIG used across tests.

    Gates draw three distinct-ish operands from the growing pool with
    random complement attributes; outputs sample the deepest quarter so
    compiled programs are non-trivial.
    """
    rng = random.Random(seed)
    mig = Mig(f"rand{seed}", use_strash=use_strash)
    pool = [mig.add_pi(f"x{i}") for i in range(num_pis)]
    pool.append(0)  # allow constant operands occasionally

    created = 0
    attempts = 0
    while created < num_gates and attempts < num_gates * 30:
        attempts += 1
        ops = []
        for _ in range(3):
            sig = pool[rng.randrange(len(pool))]
            if rng.random() < complement_prob:
                sig = complement(sig)
            ops.append(sig)
        sig = mig.add_maj(*ops)
        if sig <= 1 or sig in pool:
            continue
        pool.append(sig)
        created += 1

    n_pos = num_pos if num_pos is not None else max(1, created // 8)
    start = max(num_pis + 1, len(pool) - max(4 * n_pos, len(pool) // 4))
    candidates = pool[start:] or pool[num_pis:] or pool[:num_pis]
    for i in range(n_pos):
        sig = candidates[rng.randrange(len(candidates))]
        if rng.random() < complement_prob:
            sig = complement(sig)
        mig.add_po(sig, f"y{i}")
    return mig


def raw_status(server, method: str, path: str, content_length: str) -> int:
    """Status of one raw HTTP/1.0 request carrying *content_length*
    verbatim and no body; a server that waits for the body instead of
    answering fails on the socket timeout."""
    request = (
        f"{method} {path} HTTP/1.0\r\nHost: localhost\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection(server.server_address[:2], timeout=3) as sock:
        sock.sendall(request.encode("ascii"))
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return int(response.split(b" ", 2)[1])


@pytest.fixture(params=["bigint", "numpy"])
def engine(request, monkeypatch):
    """Run the test once per platform and yield the simulation kernel.

    ``bigint`` hides numpy from the interpreter, as on a CPython-only
    platform; ``numpy`` loads it where it is installed.  The kernel is
    the same pure-Python engine on both, and so must be every result.
    """
    if request.param == "bigint":
        monkeypatch.setitem(sys.modules, "numpy", None)
    else:
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
    return get_kernel()


@pytest.fixture
def tiny_adder():
    from repro.synth.arithmetic import build_adder

    return build_adder(width=4)


@pytest.fixture
def small_random_mig():
    return make_random_mig(num_pis=6, num_gates=40, seed=7)


@pytest.fixture
def xor_mig():
    mig = Mig("xor2")
    a, b = mig.add_pi("a"), mig.add_pi("b")
    mig.add_po(mig.add_xor(a, b), "f")
    return mig

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import socket

import pytest

from repro.mig import kernel
from repro.mig.graph import Mig
from repro.mig.signal import complement

#: The numpy engine as installed (``None`` without numpy); tests that
#: hide it from the kernel module put it back through :func:`use_engine`.
_NUMPY_ENGINE = kernel._NUMPY

#: The engines this interpreter runs: bigint always, numpy if installed.
ENGINES = ("bigint", "numpy") if _NUMPY_ENGINE is not None else ("bigint",)


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


def use_engine(monkeypatch, name: str):
    """Point :func:`repro.mig.kernel.get_kernel` at the *name* engine for
    the rest of the test and return that kernel.

    ``bigint`` hides numpy from :mod:`repro.mig.kernel`, as on a
    CPython-only platform; ``numpy`` skips the test where numpy is not
    installed.
    """
    if name == "numpy" and _NUMPY_ENGINE is None:
        pytest.skip("numpy not installed")
    monkeypatch.setattr(
        kernel, "_NUMPY", _NUMPY_ENGINE if name == "numpy" else None
    )
    return kernel.get_kernel()


@pytest.fixture(params=["bigint", "numpy"])
def engine(request, monkeypatch):
    """Run the test once per simulation engine; yields its kernel."""
    return use_engine(monkeypatch, request.param)


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

"""The :class:`Source` abstraction: where a circuit comes from.

Every pipeline in the harness begins with a graph, and before this
layer existed the only first-class origin was a registry benchmark
name.  A :class:`Source` generalises the origin while keeping the
cache discipline registry benchmarks always had: each source carries a
**stable, content-addressed identity** (see :meth:`Source.identity`)
under which its built graph — and every rewrite/compile/verify
artefact derived from it — persists in the
:class:`~repro.analysis.diskcache.DiskCache` and ships across
``run_matrix`` worker processes.

Four kinds ship built in:

``registry``  (:class:`RegistrySource`)
    One of the 18 paper benchmarks.  Identity is the classic
    ``(name, preset)`` pair, so cache entries are byte-identical to the
    pre-source-layer layout.
``file``  (:class:`FileSource`)
    A netlist on disk — the native exchange format, BLIF, or ASCII
    AIGER (see :func:`repro.mig.io.read_netlist`).  Identity hashes the
    file *bytes*, so editing the file changes the identity and a moved
    or copied file keeps its cached artefacts.
``frontend``  (:class:`FrontendSource`)
    A Python function decorated with
    :func:`repro.synth.frontend.mig_function`.  Identity hashes the
    function's source text and bit widths, available before the
    circuit is ever elaborated.
``graph``  (:class:`MigSource`)
    An explicit, already-built :class:`~repro.mig.graph.Mig`.  Identity
    is the graph's :meth:`~repro.mig.graph.Mig.content_fingerprint`.

Width presets only affect registry sources; the other kinds describe a
fixed circuit and ignore the preset (their identity says so, keeping
cache keys preset-independent).
"""

from __future__ import annotations

import hashlib
import os
from abc import ABC, abstractmethod
from typing import Tuple

from ..mig.graph import Mig
from ..mig.io import NETLIST_READERS, read_netlist
from ..synth.frontend import FrontendFunction
from ..synth.registry import BENCHMARKS, build_benchmark


class Source(ABC):
    """One circuit origin with a stable, cache-addressable identity."""

    #: Discriminator string (``registry`` / ``file`` / ``frontend`` /
    #: ``graph``); the default :meth:`identity` leads with it.
    kind: str = "abstract"

    #: Display name (benchmark name, file stem, function name, ...).
    name: str = ""

    @abstractmethod
    def fingerprint(self) -> str:
        """Stable content hash of this source (SHA-256 hex)."""

    @abstractmethod
    def build(self, preset: str) -> Mig:
        """Materialise the circuit (registry sources honour *preset*)."""

    def identity(self, preset: str) -> Tuple[str, ...]:
        """Persistent cache identity; equal identities may share every
        cached artefact.  Non-registry sources are preset-independent."""
        return (self.kind, self.fingerprint())

    def label(self, preset: str) -> str:
        """Human-readable head of flow labels (``name@origin``)."""
        return f"{self.name}@{self.kind}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class RegistrySource(Source):
    """A paper benchmark from :mod:`repro.synth.registry`."""

    kind = "registry"

    def __init__(self, name: str) -> None:
        if name not in BENCHMARKS:
            raise ValueError(
                f"unknown registry benchmark {name!r}; expected one of "
                f"{list(BENCHMARKS)}"
            )
        self.name = name

    def fingerprint(self) -> str:
        # Registry identity is nominal, not structural: the builders are
        # deterministic, so the name pins the content per preset.
        return hashlib.sha256(f"registry:{self.name}".encode()).hexdigest()

    def identity(self, preset: str) -> Tuple[str, ...]:
        # The exact pre-source-layer cache identity — keeps every disk
        # entry ever written for registry benchmarks addressable.
        return (self.name, preset)

    def build(self, preset: str) -> Mig:
        return build_benchmark(self.name, preset)

    def label(self, preset: str) -> str:
        return f"{self.name}@{preset}"


class FileSource(Source):
    """A netlist file: exchange format, BLIF, or ASCII AIGER."""

    kind = "file"

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = os.fspath(path)
        extension = os.path.splitext(self.path)[1].lower()
        if extension not in NETLIST_READERS:
            raise ValueError(
                f"unrecognised netlist extension {extension!r} for "
                f"{self.path!r} (expected one of: "
                f"{', '.join(sorted(NETLIST_READERS))})"
            )
        self.name = os.path.splitext(os.path.basename(self.path))[0]
        # Hash the bytes eagerly: the identity must pin the content the
        # run actually read, even if the file is edited mid-session.
        digest = hashlib.sha256()
        digest.update(extension.encode())
        with open(self.path, "rb") as handle:
            digest.update(handle.read())
        self._fingerprint = digest.hexdigest()

    def fingerprint(self) -> str:
        return self._fingerprint

    def build(self, preset: str) -> Mig:
        return read_netlist(self.path)


class FrontendSource(Source):
    """A :func:`~repro.synth.frontend.mig_function` decorated function."""

    kind = "frontend"

    def __init__(self, fn: FrontendFunction) -> None:
        self.fn = fn
        self.name = fn.name

    def fingerprint(self) -> str:
        return self.fn.fingerprint

    def build(self, preset: str) -> Mig:
        return self.fn.build()


class MigSource(Source):
    """An explicit, already-built graph."""

    kind = "graph"

    def __init__(self, mig: Mig) -> None:
        self.mig = mig
        self.name = mig.name or "mig"

    def fingerprint(self) -> str:
        return self.mig.content_fingerprint()

    def build(self, preset: str) -> Mig:
        return self.mig

    def label(self, preset: str) -> str:
        # source_mig() flows historically labelled by bare graph name.
        return self.name

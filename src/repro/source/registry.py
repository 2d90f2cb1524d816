"""Named sources and how a run picks one.

The source registry mirrors :mod:`repro.arch.registry` /
:mod:`repro.opt`: names resolve through the harness-wide precedence
**explicit > environment > default**, and the registry ships
pre-populated with the 18 paper benchmarks (kind ``registry``), so
every name that worked before the source layer still works.

:func:`resolve_source` is the single entry point everything routes
through — ``Flow.source(...)``, ``Session(source=...)``, the CLI — and
accepts every spelling of a circuit origin:

* a registered name (``"adder"``),
* a netlist path (``"circuits/alu.blif"``; anything with a recognised
  netlist extension or an existing file),
* an explicit :class:`~repro.source.base.Source`,
* a bare :class:`~repro.mig.graph.Mig`,
* a :func:`~repro.synth.frontend.mig_function` decorated function.

Registering a custom source
---------------------------
Build any :class:`Source` (or wrap a graph/function) and register it
before constructing sessions::

    from repro.source import FileSource, register_source

    register_source(FileSource("circuits/alu.blif"))

The file's stem then works everywhere a benchmark name does —
``Flow.source("alu")``, ``$REPRO_SOURCE=alu``, ``run_matrix(["alu"])``
— and its artefacts persist under the file's content fingerprint.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from .._env import env_value
from ..mig.graph import Mig
from ..mig.io import NETLIST_READERS
from ..synth.frontend import FrontendFunction
from ..synth.registry import BENCHMARK_ORDER
from .base import (
    FileSource,
    FrontendSource,
    MigSource,
    RegistrySource,
    Source,
)

#: Environment variable selecting the default source (overridden by an
#: explicit ``.source(...)`` declaration / ``Session(source=...)``).
SOURCE_ENV_VAR = "REPRO_SOURCE"

#: Everything :func:`resolve_source` accepts.
SourceLike = Union[str, Source, Mig, FrontendFunction, None]

_REGISTRY: Dict[str, Source] = {}


def register_source(source: Source, *, overwrite: bool = False) -> Source:
    """Add *source* to the registry under ``source.name``; returns it.

    Registering an existing name is an error unless ``overwrite=True`` —
    silently replacing a circuit mid-run would poison cache keys.
    """
    if not overwrite and source.name in _REGISTRY:
        raise ValueError(
            f"source {source.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[source.name] = source
    return source


def get_source(name: str) -> Source:
    """Look a source up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown source {name!r}; expected one of "
            f"{available_sources()} or a netlist path"
        ) from None


def available_sources() -> List[str]:
    """Registered source names, registration order."""
    return list(_REGISTRY)


def _looks_like_path(value: str) -> bool:
    extension = os.path.splitext(value)[1].lower()
    return extension in NETLIST_READERS or os.sep in value


def resolve_source(source: SourceLike = None) -> Source:
    """Uniform source resolution: explicit > ``$REPRO_SOURCE``.

    Strings resolve through the registry first, then as netlist paths
    (a recognised extension or a path separator marks a path even when
    the file is missing, so the error names the file rather than the
    registry).  Unlike architectures there is no final default — a run
    has to say *which* circuit it evaluates — so ``None`` without
    ``$REPRO_SOURCE`` raises.
    """
    if source is None:
        source = env_value(SOURCE_ENV_VAR)
        if source is None:
            raise ValueError(
                "no source selected; declare one explicitly or set "
                f"${SOURCE_ENV_VAR}"
            )
    if isinstance(source, Source):
        return source
    if isinstance(source, Mig):
        return MigSource(source)
    if isinstance(source, FrontendFunction):
        return FrontendSource(source)
    if isinstance(source, str):
        if source in _REGISTRY:
            return _REGISTRY[source]
        if _looks_like_path(source):
            return FileSource(source)
        raise ValueError(
            f"unknown source {source!r}; expected one of "
            f"{available_sources()} or a netlist path "
            f"({', '.join(sorted(NETLIST_READERS))})"
        )
    raise TypeError(
        f"cannot interpret {type(source).__name__} as a source; expected "
        "a name, a netlist path, a Source, a Mig, or a @mig_function"
    )


def source_from_env() -> Optional[str]:
    """The ``$REPRO_SOURCE`` selection, if any (validated)."""
    env = env_value(SOURCE_ENV_VAR)
    if env is not None:
        resolve_source(env)
    return env


# -- built-in sources: the 18 paper benchmarks ---------------------------

for _name in BENCHMARK_ORDER:
    register_source(RegistrySource(_name))
del _name

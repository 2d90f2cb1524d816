"""Named machine models and how a run picks one.

Three architectures ship built in:

``dac16``
    The machine the DAC'16 PLiM compiler assumes: an unbounded RM3
    crossbar whose controller exposes **no** wear counters — it cannot
    run the minimum write count strategy or retire devices, only the
    endurance-oblivious configurations.
``endurance`` (default)
    The reproduced paper's machine: the same crossbar with per-cell
    wear counters and device retirement, enabling the minimum/maximum
    write count strategies.  This is byte-identical to the behaviour
    before architectures existed.
``blocked``
    Word-addressed RRAM: devices come in word lines of eight, capacity
    is provisioned (and billed as ``#R``) a whole word at a time, and
    the free pool is searched block-first — the compile-time analogue of
    the row locality Start-Gap style schemes exploit at runtime.

Selection follows the harness-wide precedence **flag > environment >
default**: an explicit ``--arch``/``Session(arch=...)`` wins, else
``$REPRO_ARCH``, else ``endurance``.

Registering a custom machine
----------------------------
Build an :class:`~repro.arch.Architecture` and register it before
constructing sessions::

    from repro.arch import Architecture, Geometry, register_architecture

    register_architecture(Architecture(
        name="wide-word",
        geometry=Geometry(block_size=32, capacity=4096),
        description="32-cell word lines, 4k devices",
    ))

The name then works everywhere a built-in does: ``Session(arch=...)``,
``Flow.arch(...)``, ``--arch`` (if registered before the parser is
built), ``$REPRO_ARCH``, and the cache keys artefacts are stored under.
Worker processes resolve architectures by name, so custom machines must
be registered (e.g. at module import) in the workers too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .._env import env_value
from .model import Architecture, EnduranceModel, Geometry

#: Environment variable selecting the architecture (overridden by an
#: explicit ``--arch`` flag / ``Session(arch=...)`` argument).
ARCH_ENV_VAR = "REPRO_ARCH"

#: Registry name of the architecture used when nothing is selected.
DEFAULT_ARCHITECTURE = "endurance"

_REGISTRY: Dict[str, Architecture] = {}


def register_architecture(
    arch: Architecture, *, overwrite: bool = False
) -> Architecture:
    """Add *arch* to the registry under ``arch.name``; returns it.

    Registering an existing name is an error unless ``overwrite=True`` —
    silently replacing a machine mid-run would poison cache keys.
    """
    if not overwrite and arch.name in _REGISTRY:
        raise ValueError(
            f"architecture {arch.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[arch.name] = arch
    return arch


def get_architecture(name: str) -> Architecture:
    """Look an architecture up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown architecture {name!r}; expected one of "
            f"{available_architectures()}"
        ) from None


def available_architectures() -> List[str]:
    """Registered architecture names, registration order."""
    return list(_REGISTRY)


def resolve_architecture(
    arch: Union[str, Architecture, None] = None,
) -> Architecture:
    """Uniform architecture resolution: explicit > ``$REPRO_ARCH`` > default.

    *arch* may be a registry name or an already-built
    :class:`Architecture` (returned as-is, registered or not).
    """
    if isinstance(arch, Architecture):
        return arch
    if arch is None:
        arch = env_value(ARCH_ENV_VAR) or DEFAULT_ARCHITECTURE
    return get_architecture(arch)


def arch_from_env() -> Optional[str]:
    """The ``$REPRO_ARCH`` selection, if any (validated)."""
    env = env_value(ARCH_ENV_VAR)
    return get_architecture(env).name if env else None


# -- built-in machines ---------------------------------------------------

register_architecture(
    Architecture(
        name="dac16",
        endurance=EnduranceModel(
            wear_tracking=False, supports_retirement=False
        ),
        description=(
            "DAC'16 PLiM machine: unbounded crossbar, no wear counters "
            "(endurance-oblivious configurations only)"
        ),
    )
)

register_architecture(
    Architecture(
        name="endurance",
        description=(
            "the paper's machine: unbounded crossbar with per-cell wear "
            "counters and write-cap retirement (default)"
        ),
    )
)

register_architecture(
    Architecture(
        name="blocked",
        geometry=Geometry(block_size=8),
        description=(
            "word-addressed RRAM: 8-cell word lines, block-granular "
            "provisioning, block-first free-pool search"
        ),
    )
)

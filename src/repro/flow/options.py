"""The option table: every flag > environment > none knob, declared once.

An explicit flag wins, else the environment variable (read through
:func:`repro._env.env_value`: stripped, blank = unset), else nothing is
selected and the owning layer's default applies.  The session's flags,
:meth:`~repro.flow.Session.from_args`/``from_env`` resolution, its
:meth:`~repro.flow.Session.spec` round trip and the CLI's maintenance
flags are all generated from :data:`KNOBS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from .._env import env_value
from ..analysis.diskcache import CACHE_ENV_VAR
from ..arch import ARCH_ENV_VAR, available_architectures, get_architecture
from ..cachesvc.client import CACHE_URL_ENV_VAR
from ..mig.kernel import BACKEND_ENV_VAR, BACKENDS, resolve_backend
from ..opt import OPT_ENV_VAR, OptimizerSpec
from ..resilience import DEFAULT_POLICY, RETRY_ENV_VAR, TIMEOUT_ENV_VAR
from ..resilience import Timeouts, resolve_retry
from ..source import SOURCE_ENV_VAR, resolve_source


@dataclass(frozen=True)
class Knob:
    """One flag > environment > none setting."""

    #: ``Session``/``SessionSpec`` keyword (for a session knob).
    name: str
    flag: str
    env_var: str
    #: Validates a flag/environment string and returns its canonical
    #: form; raises ``ValueError`` on a bad value.
    canonical: Callable[[str], str]
    #: The :meth:`Session.add_arguments` switch installing the flag;
    #: ``None`` for a knob outside the session (the serve retry budget).
    switch: Optional[str]
    help: str
    #: What applies when neither flag nor variable is set (help text).
    fallback: str
    metavar: Optional[str] = None
    choices: Optional[Callable[[], Sequence[str]]] = None

    @property
    def dest(self) -> str:
        """The ``argparse`` attribute the flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")

    def resolve(self, flag: Optional[str] = None) -> Optional[str]:
        """Flag > ``$env_var`` > ``None``, canonicalised (fails fast)."""
        value = flag or env_value(self.env_var)
        return self.canonical(value) if value is not None else None

    def add_to(self, parser, *, flag=None, help=None, fallback=None) -> None:
        """Install the flag on *parser*; *flag*/*help*/*fallback*
        override the row's for commands that read the knob differently
        (e.g. maintenance commands that always need a cache root)."""
        parser.add_argument(
            flag or self.flag,
            default=None,
            metavar=self.metavar,
            choices=self.choices() if self.choices is not None else None,
            help=(
                f"{help or self.help} (default: ${self.env_var} if set, "
                f"else {fallback or self.fallback})"
            ),
        )


def _validated(check: Callable[[str], object]) -> Callable[[str], str]:
    """A canonicaliser keeping the value as given once *check* accepts it."""
    return lambda value: (check(value), value)[1]


#: The knobs, in ``--help`` order.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob(
        "backend", "--backend", BACKEND_ENV_VAR, _validated(resolve_backend),
        "backend", "simulation-kernel backend", "auto-detection",
        choices=lambda: list(BACKENDS),
    ),
    Knob(
        "arch", "--arch", ARCH_ENV_VAR,
        lambda value: get_architecture(value).name,
        "arch", "target PLiM machine model", "the paper's 'endurance' machine",
        choices=available_architectures,
    ),
    Knob(
        "source", "--source", SOURCE_ENV_VAR, _validated(resolve_source),
        "source",
        "circuit source: a registry benchmark name or a netlist path "
        "(.mig/.blif/.aag); see 'repro source list'",
        "none", metavar="NAME_OR_PATH",
    ),
    Knob(
        "opt", "--opt", OPT_ENV_VAR,
        lambda value: OptimizerSpec.parse(value).label(),
        "opt",
        "rewriting optimizer spec, STRATEGY[:OBJECTIVE][@DEPTH] — e.g. "
        "'script', 'greedy', 'budget:write_cost@3'; see 'repro opt list'",
        "the paper's fixed scripts", metavar="SPEC",
    ),
    Knob(
        # "0" (unlimited) stays a value, so it still beats the environment.
        "timeouts", "--timeout", TIMEOUT_ENV_VAR,
        lambda value: Timeouts.parse(value).spec() or "0",
        "timeout",
        "per-stage wall-clock budget in seconds, [STAGE=]SECONDS[,...] — "
        "e.g. '30' or 'compile=120,verify=30,job=600'",
        "unlimited", metavar="SPEC",
    ),
    Knob(
        "cache_dir", "--cache-dir", CACHE_ENV_VAR, str, "cache",
        "persist built/compiled artefacts under DIR across runs",
        "no persistence", metavar="DIR",
    ),
    Knob(
        "cache_url", "--cache-url", CACHE_URL_ENV_VAR, str, "cache",
        "route artefacts through a shared cache server; see "
        "'repro cachesvc serve'",
        "direct disk access", metavar="URL",
    ),
    Knob(
        "retries", "--retries", RETRY_ENV_VAR,
        lambda value: str(resolve_retry(value).attempts),
        None, "retry attempt budget per job", str(DEFAULT_POLICY.attempts),
        metavar="N",
    ),
)}

#: The knobs a :class:`repro.flow.Session` carries (and
#: :class:`repro.flow.SessionSpec` ships to worker processes).
SESSION_KNOBS = tuple(knob for knob in KNOBS.values() if knob.switch)

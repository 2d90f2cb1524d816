"""Job-request parsing and JSON payload shaping for :mod:`repro.serve`.

One job request is a JSON object selecting a circuit source, an
endurance configuration, and the machine/optimizer pair to compile for:

.. code-block:: json

    {"source": "adder", "config": "ea-full", "arch": "blocked",
     "opt": "greedy:write_cost", "verify": 64}

Sources come in three shapes, mirroring :mod:`repro.source`:

* ``"source"`` — a registry benchmark name or a netlist path readable
  by the server (``.mig``/``.blif``/``.aag``/``.aiger``/``.aig``);
* ``"netlist"`` — an inline text netlist,
  ``{"format": ".aag", "text": "aag 0 0 0 0 0\\n"}`` (any netlist
  format but binary ``.aig``), parsed on submit and keyed by its
  content fingerprint;
* ``"frontend"`` — inline Python source using
  :func:`~repro.synth.frontend.mig_function`, only honoured when the
  server was started with ``--allow-frontend`` (it executes submitted
  code).

Validation errors raise :class:`SchemaError`, which the routing layer
maps to HTTP 400 — the request never reaches the queue.
"""

from __future__ import annotations

import hashlib
import linecache
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..arch import (
    Architecture,
    ArchitectureError,
    available_architectures,
    resolve_architecture,
)
from ..core.manager import EnduranceConfig, PRESETS, full_management
from ..mig.io import NETLIST_READERS, MigParseError, loads_netlist
from ..opt import OptimizerSpec, resolve_optimizer
from ..source import MigSource, Source, resolve_source
from ..synth.frontend import FrontendFunction, mig_function
from ..analysis.runner import TABLE1_PRESETS, VERIFY_PATTERNS, experiment_key

#: Benchmark width presets a job may select (mirrors the CLI choices).
PRESET_CHOICES = ("tiny", "default", "paper")

#: Default verification width applied when a job does not choose one —
#: the harness's ``verify=True`` width, so served artefacts carry
#: certificates.
DEFAULT_VERIFY_PATTERNS = VERIFY_PATTERNS

_KNOWN_KEYS = frozenset(
    {"source", "netlist", "frontend", "preset", "config", "wmax",
     "effort", "arch", "opt", "verify"}
)


class SchemaError(ValueError):
    """Malformed or unacceptable job request (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, fully-resolved job: everything the queue needs.

    ``request`` is the sanitised echo shown back in job payloads;
    ``signature`` is the coalescing identity — two in-flight jobs with
    equal signatures compile the same artefact, so only one runs.
    """

    source: Source
    preset: str
    config: EnduranceConfig
    arch: Architecture
    opt: OptimizerSpec
    #: Verification width; 0 skips the verify stage.
    verify: int
    request: Dict[str, object]

    @property
    def signature(self) -> Tuple:
        return (
            tuple(self.source.identity(self.preset)),
            experiment_key(self.config, self.arch, self.opt),
            self.verify,
        )

    def identity(self) -> Tuple:
        """The cache identity results persist under (see
        :meth:`repro.analysis.runner.ExperimentCache.adopt`)."""
        return tuple(self.source.identity(self.preset))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _parse_inline_netlist(body: object) -> Source:
    _require(
        isinstance(body, dict),
        "'netlist' must be an object {format, text}",
    )
    fmt = body.get("format", ".aag")
    _require(isinstance(fmt, str), "'netlist.format' must be a string")
    if not fmt.startswith("."):
        fmt = "." + fmt
    # JSON carries text, so binary AIGER payloads travel as paths.
    inline = sorted(ext for ext in NETLIST_READERS if ext != ".aig")
    _require(
        fmt.lower() in inline,
        f"unsupported inline netlist format {fmt!r} "
        f"(expected one of: {', '.join(inline)})",
    )
    text = body.get("text")
    _require(
        isinstance(text, str) and text.strip() != "",
        "'netlist.text' must be a non-empty string",
    )
    try:
        mig = loads_netlist(text, "netlist" + fmt.lower())
    except MigParseError as error:
        raise SchemaError(f"netlist does not parse: {error}") from None
    name = body.get("name")
    if name is not None:
        _require(isinstance(name, str), "'netlist.name' must be a string")
        mig.name = name
    return MigSource(mig)


def _parse_frontend(body: object) -> Source:
    """Execute inline frontend source and resolve its decorated function.

    The text is compiled under a synthetic filename registered with
    :mod:`linecache`, so :func:`inspect.getsource` — which the frontend
    decorator uses to lift the AST — works without a temp file.
    """
    _require(isinstance(body, dict), "'frontend' must be an object {text}")
    text = body.get("text")
    _require(
        isinstance(text, str) and text.strip() != "",
        "'frontend.text' must be a non-empty string",
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    filename = f"<frontend:{digest}>"
    try:
        code = compile(text, filename, "exec")
    except SyntaxError as error:
        raise SchemaError(f"frontend does not compile: {error}") from None
    linecache.cache[filename] = (
        len(text), None, text.splitlines(True), filename
    )
    namespace: Dict[str, object] = {"mig_function": mig_function}
    try:
        exec(code, namespace)  # noqa: S102 — gated behind --allow-frontend
    except Exception as error:
        raise SchemaError(f"frontend raised at import: {error!r}") from None
    functions = [
        value for value in namespace.values()
        if isinstance(value, FrontendFunction)
    ]
    _require(
        len(functions) == 1,
        "frontend text must define exactly one @mig_function "
        f"(found {len(functions)})",
    )
    try:
        return resolve_source(functions[0])
    except (ValueError, MigParseError) as error:
        raise SchemaError(f"frontend does not elaborate: {error}") from None


def _parse_source(
    payload: Dict[str, object], *, allow_frontend: bool
) -> Tuple[Source, Dict[str, object]]:
    declared = [k for k in ("source", "netlist", "frontend") if k in payload]
    _require(
        len(declared) == 1,
        "declare exactly one of 'source', 'netlist', or 'frontend'",
    )
    kind = declared[0]
    if kind == "source":
        name = payload["source"]
        _require(
            isinstance(name, str) and name != "",
            "'source' must be a benchmark name or netlist path",
        )
        try:
            source = resolve_source(name)
        except (ValueError, OSError, MigParseError) as error:
            raise SchemaError(f"unresolvable source {name!r}: {error}") from None
        return source, {"source": name}
    if kind == "netlist":
        source = _parse_inline_netlist(payload["netlist"])
        return source, {"netlist": source.name}
    if not allow_frontend:
        raise SchemaError(
            "inline frontends are disabled on this server "
            "(start it with --allow-frontend)"
        )
    source = _parse_frontend(payload["frontend"])
    return source, {"frontend": source.name}


def _parse_config(
    payload: Dict[str, object], arch: Architecture
) -> EnduranceConfig:
    name = payload["config"] if "config" in payload else next(
        # The last Table I column the machine can run.
        name for name in reversed(TABLE1_PRESETS)
        if arch.supports_config(PRESETS[name])
    )
    wmax = payload.get("wmax")
    if wmax is not None:
        _require(
            "config" not in payload,
            "'config' and 'wmax' are mutually exclusive",
        )
        _require(
            isinstance(wmax, int) and not isinstance(wmax, bool) and wmax > 0,
            "'wmax' must be a positive integer",
        )
        config = full_management(wmax)
    else:
        _require(isinstance(name, str), "'config' must be a preset name")
        try:
            config = PRESETS[name]
        except KeyError:
            raise SchemaError(
                f"unknown configuration preset {name!r}; "
                f"choose one of: {', '.join(PRESETS)}"
            ) from None
    effort = payload.get("effort")
    if effort is not None:
        _require(
            isinstance(effort, int) and not isinstance(effort, bool)
            and effort > 0,
            "'effort' must be a positive integer",
        )
        config = replace(config, effort=effort)
    return config


def parse_job(
    payload: object,
    session,
    *,
    allow_frontend: bool = False,
) -> JobSpec:
    """Validate one ``POST /jobs`` body into a :class:`JobSpec`.

    *session* supplies the defaults a request may omit: its width
    preset, architecture, and optimizer — so a bare
    ``{"source": "adder"}`` compiles exactly like the CLI would with
    the server's flags.  The configuration defaults to the last Table I
    column the job's machine can run: ``ea-full``, or ``dac16`` on the
    ``dac16`` machine.  A configuration the machine refuses (e.g.
    ``min_write`` allocation on ``dac16``, which has no wear counters)
    is a :class:`SchemaError`: nothing is queued.
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = sorted(set(payload) - _KNOWN_KEYS)
    _require(not unknown, f"unknown request keys: {', '.join(unknown)}")

    source, echo = _parse_source(payload, allow_frontend=allow_frontend)

    preset = payload.get("preset", session.preset)
    _require(
        isinstance(preset, str) and preset in PRESET_CHOICES,
        f"'preset' must be one of: {', '.join(PRESET_CHOICES)}",
    )

    arch_name = payload.get("arch")
    if arch_name is None:
        arch = session.architecture
    else:
        _require(isinstance(arch_name, str), "'arch' must be a string")
        try:
            arch = resolve_architecture(arch_name)
        except ValueError:
            raise SchemaError(
                f"unknown architecture {arch_name!r}; choose one of: "
                f"{', '.join(available_architectures())}"
            ) from None

    config = _parse_config(payload, arch)
    try:
        arch.validate_config(config)
    except ArchitectureError as error:
        raise SchemaError(str(error)) from None

    opt_name = payload.get("opt")
    if opt_name is None:
        opt = session.optimizer
    else:
        _require(isinstance(opt_name, str), "'opt' must be a string")
        try:
            opt = resolve_optimizer(opt_name)
        except ValueError as error:
            raise SchemaError(f"bad optimizer spec: {error}") from None

    verify = payload.get("verify", DEFAULT_VERIFY_PATTERNS)
    if verify is False or verify is None:
        verify = 0
    _require(
        isinstance(verify, int) and not isinstance(verify, bool)
        and verify >= 0,
        "'verify' must be a non-negative pattern count (or false)",
    )

    echo.update(
        preset=preset,
        config=config.name,
        arch=arch.name,
        opt=opt.label(),
        verify=verify,
    )
    return JobSpec(
        source=source,
        preset=preset,
        config=config,
        arch=arch,
        opt=opt,
        verify=verify,
        request=echo,
    )


def summarize_compilation(
    compilation, spec: JobSpec, *, verified: Optional[int] = None
) -> Dict[str, object]:
    """The JSON result summary of a finished job."""
    stats = compilation.stats
    return {
        "benchmark": compilation.program.name or spec.source.name,
        "preset": spec.preset,
        "config": spec.config.name,
        "arch": spec.arch.name,
        "opt": spec.opt.label(),
        "verified_patterns": (
            spec.verify if verified is None else verified
        ),
        "gates_before": compilation.mig_gates_before,
        "gates_after": compilation.mig_gates_after,
        "instructions": compilation.num_instructions,
        "rrams": compilation.num_rrams,
        "stats": {
            "num_devices": stats.num_devices,
            "total_writes": stats.total_writes,
            "min_writes": stats.min_writes,
            "max_writes": stats.max_writes,
            "mean": stats.mean,
            "stdev": stats.stdev,
        },
    }

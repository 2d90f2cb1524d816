"""Tests for the option table (repro.flow.options.KNOBS).

Every flag > environment > none knob is declared once; these tests hold
each row to that contract through the real CLI parsers, so a knob that
drifts from the table (or a table row that stops reaching the session)
fails here.
"""

import dataclasses

import pytest

from repro.analysis.cli import build_parser
from repro.flow import Session, SessionSpec
from repro.flow.options import KNOBS, SESSION_KNOBS

#: Per row: a flag value, a different environment value (both valid),
#: their canonical forms, and a malformed value (``None``: the knob
#: accepts any string).
CASES = {
    "backend": ("bigint", "auto", "bigint", "auto", "tpu"),
    "arch": ("dac16", "blocked", "dac16", "blocked", "bogus"),
    "source": ("adder", "dec", "adder", "dec", "bogus"),
    "opt": ("budget", "greedy", "budget:write_cost@2", "greedy:write_cost",
            "warp-drive"),
    "timeouts": ("30", "verify=40,compile=20", "30", "compile=20,verify=40",
                 "soon"),
    "cache_dir": ("flagroot", "envroot", "flagroot", "envroot", None),
    "cache_url": ("http://127.0.0.1:9/a", "http://127.0.0.1:9/b",
                  "http://127.0.0.1:9/a", "http://127.0.0.1:9/b", None),
    "retries": ("4", "9", "4", "9", "nope"),
}


def _resolved(knob, argv):
    """The knob's value as its command resolves it: session knobs
    through ``Session.from_args`` on ``bench`` (which takes every one),
    the retry budget the way ``serve`` reads it."""
    if knob.switch is None:
        args = build_parser().parse_args(["serve", *argv])
        return knob.resolve(getattr(args, knob.dest))
    args = build_parser().parse_args(["bench", *argv])
    return getattr(Session.from_args(args).spec(), knob.name)


def test_cases_cover_every_row():
    assert set(CASES) == set(KNOBS)


@pytest.mark.parametrize("name", list(KNOBS))
def test_row_precedence(name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # cache_dir values are relative paths
    knob = KNOBS[name]
    flag, env, flag_canonical, env_canonical, malformed = CASES[name]
    monkeypatch.setenv(knob.env_var, env)
    # flag > environment
    assert _resolved(knob, [knob.flag, flag]) == flag_canonical
    # environment > none
    assert _resolved(knob, []) == env_canonical
    # a blank variable is unset
    monkeypatch.setenv(knob.env_var, "  ")
    assert _resolved(knob, []) is None
    monkeypatch.delenv(knob.env_var)
    assert _resolved(knob, []) is None
    # surrounding whitespace is not part of the value
    monkeypatch.setenv(knob.env_var, f" {env} ")
    assert _resolved(knob, []) == env_canonical
    if malformed is not None:
        monkeypatch.setenv(knob.env_var, malformed)
        with pytest.raises(ValueError):
            _resolved(knob, [])
        # ... unless the flag overrides it
        assert _resolved(knob, [knob.flag, flag]) == flag_canonical


def test_spec_fields_are_the_session_rows_plus_preset():
    fields = {field.name for field in dataclasses.fields(SessionSpec)}
    assert fields == {knob.name for knob in SESSION_KNOBS} | {"preset"}


def test_spec_round_trips_every_session_row(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env_var, raising=False)
    explicit = {
        knob.name: CASES[knob.name][2] for knob in SESSION_KNOBS
    }
    spec = Session(preset="tiny", **explicit).spec()
    assert spec == SessionSpec(preset="tiny", **explicit)
    assert Session.from_spec(spec).spec() == spec


@pytest.mark.parametrize(
    "var", ["REPRO_ARCH", "REPRO_OPT", "REPRO_SIM_BACKEND", "REPRO_TIMEOUT"]
)
def test_serve_rejects_bad_env_at_startup(var, monkeypatch):
    """A malformed knob fails before ``repro serve`` binds, instead of
    failing every submitted job."""
    monkeypatch.setenv(var, "bogus")
    args = build_parser().parse_args(["serve"])
    with pytest.raises(ValueError):
        Session.from_args(args)


def test_timeout_flag_zero_beats_env(monkeypatch):
    """An explicitly unlimited budget is still a flag value."""
    monkeypatch.setenv("REPRO_TIMEOUT", "30")
    args = build_parser().parse_args(["bench", "--timeout", "0"])
    assert Session.from_args(args).timeouts.limit("compile") is None


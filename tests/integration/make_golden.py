"""Regenerate the ``tels`` command-line golden (``golden_cli.json``).

Run from the repo root::

    PYTHONPATH=src python tests/integration/make_golden.py

The golden pins the CLI surface in two parts:

* ``parsers``: for every subcommand (``cache stats``/``clear``/``warm``
  included) each flag's option strings, nargs, type, choices, metavar and
  help text, and the value it resolves to when it is not given.  Entries
  are keyed by option string (positionals by ``<dest>``), never by
  argparse ``dest``, so a flag may change where it stores its value.  A
  switch (a flag taking no argument) resolves to whether it is in effect,
  so ``--no-fastpath`` reads the same whether it sets ``no_fastpath`` or
  clears ``use_fastpath``.
* ``runs``: for ``synth``, ``map``, ``simulate``, ``analyze``, ``verilog``
  and ``submit``, the synthesis parameters the command runs with — first
  with no flags, then with :data:`SET_ALL` setting every synthesis-option
  flag the command takes to a non-default value.  The command is stopped
  where it hands its parameters to the engine (``run_synthesis``), to the
  one-to-one mapper, or to the daemon client (``submit`` also records the
  options dict it forwards).

Regenerate only when the CLI changes on purpose;
``tests/integration/test_golden_cli.py`` fails on any drift.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

#: Every synthesis-option flag of ``tels synth``, each off its default.
SET_ALL = (
    "--psi", "4",
    "--gate-model", "flash",
    "--delta-on", "1",
    "--delta-off", "2",
    "--seed", "7",
    "--ilp-backend", "exact",
    "--no-fastpath",
    "--no-lint",
    "--analyze",
    "--deadline-per-cone", "30",
    "--deadline-total", "300",
    "--max-attempts", "2",
    "--strict-synthesis",
)

#: The flags ``tels map`` takes, each off its default.
MAP_SET_ALL = (
    "--psi", "4",
    "--delta-on", "1",
    "--delta-off", "2",
    "--ilp-backend", "exact",
)

RUN_COMMANDS = {
    "synth": SET_ALL,
    "map": MAP_SET_ALL,
    "simulate": SET_ALL,
    "analyze": SET_ALL,
    "verilog": SET_ALL,
    "submit": SET_ALL,
}


class _Stop(Exception):
    """Raised by a stub once it has captured a command's parameters."""

    def __init__(self, record: dict):
        super().__init__("captured")
        self.record = record


def _subparsers(parser: argparse.ArgumentParser, prefix: str = ""):
    """Yield ``(command path, parser)`` for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix}{name}"
                if any(
                    isinstance(a, argparse._SubParsersAction)
                    for a in sub._actions
                ):
                    yield from _subparsers(sub, path + " ")
                else:
                    yield path, sub


def _placeholders(parser: argparse.ArgumentParser) -> list[str]:
    """One value per required positional, so the parser accepts no flags."""
    argv = []
    for action in parser._actions:
        if action.option_strings or action.nargs in ("?", "*"):
            continue
        choices = list(action.choices) if action.choices else None
        argv.append(str(choices[0]) if choices else "x")
    return argv


def _type_name(kind) -> str | None:
    return None if kind is None else getattr(kind, "__name__", repr(kind))


def _is_switch(action: argparse.Action) -> bool:
    return action.nargs == 0 and action.const is not None


def parser_rows() -> dict:
    """Every subcommand's flags, keyed by option string."""
    from repro.cli import build_parser

    rows: dict = {}
    for path, parser in _subparsers(build_parser()):
        namespace = parser.parse_args(_placeholders(parser))
        flags: dict = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            value = getattr(namespace, action.dest)
            if _is_switch(action):
                value = value == action.const
            key = action.option_strings[0] if action.option_strings else (
                f"<{action.dest}>"
            )
            flags[key] = {
                "option_strings": list(action.option_strings),
                "nargs": action.nargs,
                "type": _type_name(action.type),
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "metavar": action.metavar,
                "help": action.help,
                "resolved": value,
            }
        rows[path] = flags
    return rows


def _options_dict(options) -> dict:
    return dataclasses.asdict(options)


def _capture(argv: list[str]) -> dict:
    """Run ``tels argv`` until it hands its parameters on; return them."""
    from repro.cli import main

    def run_synthesis(network, options=None, jobs=1, store=None,
                      cache_dir=None, on_event=None, cancel=None,
                      distribute=None):
        raise _Stop(
            {
                "options": _options_dict(options),
                "jobs": jobs,
                "cache_dir": cache_dir,
                "distribute": distribute,
            }
        )

    def prepare_one_to_one(network, max_fanin=3, **_kwargs):
        fanin["max_fanin"] = max_fanin
        return network

    def one_to_one_map(network, **kwargs):
        raise _Stop({**fanin, **kwargs})

    def submit(self, blif, name="network", options=None, jobs=1,
               use_cache=True):
        from repro.core.synthesis import SynthesisOptions

        raise _Stop(
            {
                "forwarded": options,
                "jobs": jobs,
                "use_cache": use_cache,
                "options": _options_dict(SynthesisOptions(**options)),
            }
        )

    fanin: dict = {}
    with (
        mock.patch("repro.engine.scheduler.run_synthesis", run_synthesis),
        mock.patch("repro.cli.prepare_one_to_one", prepare_one_to_one),
        mock.patch("repro.cli.one_to_one_map", one_to_one_map),
        mock.patch("repro.serve.client.TelsClient.submit", submit),
        mock.patch.dict(os.environ),
    ):
        os.environ.pop("TELS_CACHE", None)
        try:
            main(argv)
        except _Stop as stop:
            return stop.record
    raise AssertionError(f"tels {' '.join(argv)} never reached the engine")


def run_rows() -> dict:
    """The parameters each synthesizing command runs with."""
    from repro.benchgen.paper_examples import MOTIVATIONAL_BLIF

    rows: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        blif = Path(tmp) / "motivational.blif"
        blif.write_text(MOTIVATIONAL_BLIF)
        for command, set_all in RUN_COMMANDS.items():
            head = [command, str(blif)]
            if command == "submit":
                head += ["--url", "http://127.0.0.1:9"]
            rows[command] = {
                "defaults": _capture(head),
                "set_all": _capture(head + list(set_all)),
            }
    return rows


def build_golden() -> dict:
    return {"parsers": parser_rows(), "runs": run_rows()}


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(build_golden(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()

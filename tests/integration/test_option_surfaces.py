"""Each synthesis option is declared once, on ``SynthesisOptions``.

The job API's ``OPTION_FIELDS`` is derived from the client-settable
fields' annotations, and every client-settable field with a ``tels``
flag reaches the same value through the CLI and through ``tels submit``
and the daemon.
"""

from __future__ import annotations

import pytest

from repro.benchgen.paper_examples import MOTIVATIONAL_BLIF
from repro.cli import _option_flags, _options, build_parser, main
from repro.core.synthesis import CLIENT_FIELDS, SynthesisOptions
from repro.serve.schemas import OPTION_FIELDS

#: The job API's option types as they were declared by hand before being
#: derived from SynthesisOptions.
DECLARED_OPTION_FIELDS = {
    "psi": (int,),
    "delta_on": (int,),
    "delta_off": (int,),
    "seed": (int,),
    "backend": (str,),
    "gate_model": (str,),
    "splitting_strategy": (str,),
    "use_fastpath": (bool,),
    "max_weight": (int, type(None)),
    "lint": (bool,),
    "analyze": (bool,),
    "deadline_per_cone_s": (int, float, type(None)),
    "deadline_total_s": (int, float, type(None)),
    "max_attempts": (int,),
    "strict_synthesis": (bool,),
}

#: Client-settable fields that no ``tels`` flag sets.
API_ONLY = ("max_weight", "splitting_strategy")

#: A non-default value for every field that has a flag.
OFF_DEFAULT = {
    "psi": 4,
    "delta_on": 1,
    "delta_off": 2,
    "seed": 7,
    "backend": "exact",
    "gate_model": "flash",
    "use_fastpath": False,
    "lint": False,
    "analyze": True,
    "deadline_per_cone_s": 30.0,
    "deadline_total_s": 300.0,
    "max_attempts": 2,
    "strict_synthesis": True,
}


def test_option_fields_are_derived_unchanged():
    assert OPTION_FIELDS == DECLARED_OPTION_FIELDS


def test_every_client_field_has_a_flag_or_is_api_only():
    flags = _option_flags()
    assert sorted(
        name for name in CLIENT_FIELDS if name not in flags
    ) == sorted(API_ONLY)
    assert set(flags) <= set(CLIENT_FIELDS)


def _flag_argv(name: str) -> list[str]:
    spellings, settings = _option_flags()[name]
    if settings.get("action") in ("store_true", "store_false"):
        return [spellings[0]]
    return [spellings[0], str(OFF_DEFAULT[name])]


@pytest.fixture(scope="module")
def daemon():
    from repro.serve.app import ServeApp

    app = ServeApp(port=0)
    app.start_background()
    try:
        yield app
    finally:
        app.shutdown()


@pytest.mark.parametrize(
    "name", [n for n in CLIENT_FIELDS if n not in API_ONLY]
)
def test_flag_reaches_cli_and_daemon_alike(name, daemon, tmp_path, capsys):
    blif = tmp_path / "motivational.blif"
    blif.write_text(MOTIVATIONAL_BLIF)
    argv = _flag_argv(name)

    via_cli = _options(build_parser().parse_args(["synth", str(blif), *argv]))

    assert main(["submit", str(blif), "--url", daemon.url, *argv]) == 0
    job_id = capsys.readouterr().out.strip()
    via_daemon = daemon.manager.get(job_id).request.build_options()

    expected = OFF_DEFAULT[name]
    assert expected != getattr(SynthesisOptions(), name)
    assert getattr(via_cli, name) == expected
    assert getattr(via_daemon, name) == expected

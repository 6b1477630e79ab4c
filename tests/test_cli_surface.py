"""The CLI's flag surface, pinned field by field.

``tests/data/cli_surface.json`` records every action of every
subcommand of ``build_parser()``: option strings, dest, default, help,
choices, metavar, nargs, action class and whether it is required.  The
parser is built from config-field metadata, so this fixture is what
guarantees a refactor of that metadata keeps every flag's name, default
and help text.  Action fields are compared, not rendered ``--help``
text, which wraps with the terminal width.

Regenerate the fixture (only for a deliberate surface change) with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/data/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "data" / "cli_surface.json"


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _action(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _jsonable(action.default),
        "help": action.help,
        "choices": _jsonable(action.choices),
        "metavar": _jsonable(action.metavar),
        "nargs": _jsonable(action.nargs),
        "action": type(action).__name__,
        "required": action.required,
    }


def surface() -> dict:
    """Every subcommand's actions, in declaration order."""
    parser = build_parser()
    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: [_action(action) for action in sub._actions]
        for name, sub in subparsers.choices.items()
    }


def _key(action: dict) -> str:
    return "/".join(action["option_strings"]) or action["dest"]


def test_cli_surface_matches_fixture():
    pinned = json.loads(FIXTURE.read_text())
    current = surface()
    assert list(current) == list(pinned)
    for command, actions in pinned.items():
        # Same flags in the same order (``--help`` lists them so) ...
        assert [_key(a) for a in current[command]] == [
            _key(a) for a in actions
        ], command
        # ... each with the same fields.
        for now, then in zip(current[command], actions):
            assert now == then, (command, _key(then))


if __name__ == "__main__":
    json.dump(surface(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")

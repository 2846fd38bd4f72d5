"""README's paper-to-code map names only things that exist: each function resolves on
its `matorder` module, each command is a `matorder` command, each report key is
written by `cli.py`, and each acceptance test is a test function under `tests/`."""

import ast
import importlib
import pathlib
import re

from matorder import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _map_rows() -> list:
    """The map's body rows as lists of cells, each cell its backticked names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Paper-to-code map\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    return [[re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split(" | ")]
            for row in table[2:]]


def _test_functions(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_name_in_the_paper_map_exists():
    rows = _map_rows()
    assert len(rows) == 12
    cli_source = (ROOT / "src" / "matorder" / "cli.py").read_text(encoding="utf-8")
    for _, functions, commands, keys, tests in rows:
        assert functions and tests
        for name in functions:
            module, attr = name.split(".")
            assert hasattr(importlib.import_module(f"matorder.{module}"), attr), name
        assert len(commands) == len(keys) <= 1
        for command in commands:
            assert command in cli._COMMANDS, command
        for key in keys:
            assert f'"{key}"' in cli_source, key
        for test_id in tests:
            path, func = test_id.split("::")
            assert func.startswith("test_") and func in _test_functions(ROOT / path), test_id

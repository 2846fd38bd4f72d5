"""The public surface: each name in `matorder.__all__` is used by a module of
`src/matorder` other than `__init__.py` (as a name or an attribute), or README's
"Library-only names" lists it with its reason, and that list is exact."""

import ast
import pathlib
import re

import matorder

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC, README = ROOT / "src" / "matorder", ROOT / "README.md"


def _used_in_src() -> set:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _library_only() -> dict:
    """README's "Library-only names" section as {name: reason}."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library-only names\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^- `(\w+)`: (\S.*)$", section, flags=re.MULTILINE))


def test_every_public_name_is_used_in_src_or_listed_as_library_only():
    unused = set(matorder.__all__) - _used_in_src()
    listed = _library_only()
    assert sorted(listed) == sorted(unused)


def test_the_usage_scan_sees_names_and_attributes():
    used = _used_in_src()
    # `la.opnorm` is an attribute; `SimilarityCone` a name in annotations and calls.
    assert {"opnorm", "SimilarityCone", "reconstruct_similarity"} <= used
    assert "c1_embed" not in used

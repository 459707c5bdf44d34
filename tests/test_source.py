import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

from chunkfair import ExperimentConfig, assign, harness, power
from chunkfair.cli import build_parser
from test_assign import WEIGHTS_ENTRIES

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "chunkfair").glob("*.py"))


def test_package_holds_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise exceptions instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_module_parses_at_the_supported_python_floor():
    # Newer syntax would break the oldest Python that pyproject.toml admits.
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    paths = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]
    assert floor and len(paths) > len(SOURCES)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))


def test_all_lists_exactly_the_public_top_level_names():
    checked = 0
    for path in SOURCES:
        module = importlib.import_module(f"chunkfair.{path.stem}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        checked += 1
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], path.name
        public = [
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        assert [name for name in public if name not in exported] == [], path.name
    assert checked


def test_every_exported_name_is_read_by_the_package_or_the_benchmark():
    # A name that only tests read is test scaffolding, not library surface.
    # Its definition and its exports (``__all__``, ``from .x import``) read nothing.
    read = set()
    for path in [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in getattr(importlib.import_module(f"chunkfair.{path.stem}"), "__all__", ())
        if name not in read
    ]
    assert unread == []


def test_every_public_function_taking_weights_is_checked_for_a_wrong_weight_count():
    # A new scheme that reads rate weights must join the wrong-count test's table.
    taking = {
        name
        for module in (assign, power)
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
        and "weights" in inspect.signature(value).parameters
    }
    assert len(taking) >= 8
    assert taking <= {name for name, _ in WEIGHTS_ENTRIES}


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_layout_names_every_module():
    layout = _readme_section("Layout")
    named = set(re.findall(r"^- `src/chunkfair/(\w+\.py)`", layout, flags=re.M))
    assert named == {path.name for path in SOURCES} - {"__init__.py"}


def test_readme_names_exactly_the_config_keys_and_commands():
    # Every documented key and command exists, and every one that exists is documented.
    section = _readme_section("Config format")
    spans = set(re.findall(r"`([^`]+)`", section))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    snake = {name for name in spans if re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", name)}
    assert snake == {name for name in fields if "_" in name}
    assert {"scenario", "trials", "seed"} <= spans & fields
    # Each scenario's own table lists the keys validate holds the other scenario to defaults on.
    for title, own_keys in (("Single-cell", harness._SINGLE_CELL_KEYS),
                            ("Multi-cell", harness._MULTI_CELL_KEYS)):
        table = section.split(f"\n### {title} only keys\n", 1)[1].split("\n### ", 1)[0]
        assert set(re.findall(r"^\| `(\w+)` \|", table, flags=re.M)) == set(own_keys), title

    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    documented = re.findall(r"^chunkfair (\S+)", _readme_section("CLI"), flags=re.M)
    assert set(documented) == set(subparsers.choices)

import ast
import importlib
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "chunkfair").glob("*.py"))


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

import ast
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

"""The documentation names only code that exists.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` quote code in
inline backticks.  Every quoted ``repro.…`` dotted path must resolve by
import and attribute lookup, and every quoted CamelCase identifier must
be defined (a class, function or assigned name) somewhere under
``src/`` or ``tests/``, so deleting or renaming code fails here until
the pages that name it follow.  CHANGES.md and ROADMAP.md are history
and stay out; fenced code blocks define their own example names.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAGES = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
         *sorted((ROOT / "docs").glob("*.md"))]

_SPAN = re.compile(r"(`+)(.+?)\1")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_CAMEL = re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+\b")


def _quoted(pattern):
    """``{match: [page:line, ...]}`` over the pages' inline code."""
    found = {}
    for page in PAGES:
        fenced = False
        lines = page.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith(("```", "~~~")):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in _SPAN.finditer(line):
                for match in pattern.findall(span.group(2)):
                    found.setdefault(match, []).append(
                        f"{page.relative_to(ROOT)}:{number}")
    return found


def _resolves(path):
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _defined_names():
    names = set()
    for top in ("src", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.id)
    return names


def test_pages_quote_code():
    """The scan sees the pages' code names at all."""
    assert "repro.flow.mapping" in _quoted(_DOTTED)
    assert "SystemMapper" in _quoted(_CAMEL)


def test_every_quoted_dotted_path_resolves():
    missing = {path: where for path, where in _quoted(_DOTTED).items()
               if not _resolves(path)}
    assert not missing, missing


def test_every_quoted_camelcase_name_is_defined():
    defined = _defined_names()
    missing = {name: where for name, where in _quoted(_CAMEL).items()
               if name not in defined}
    assert not missing, missing


@pytest.mark.parametrize("path,ok", [
    ("repro.flow.mapping.SystemMapper.connect", True),
    ("repro.ship", True),
    ("repro.flow.mapping.NoSuchMapper", False),
    ("repro.no_such_package", False),
])
def test_resolution_rule(path, ok):
    assert _resolves(path) is ok

"""Static checks on the package source."""

import ast
import os
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import TOUR

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fraczeta"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports are ignored."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os.path\nimport re as regex\nregex.compile(os.sep)\n"
    assert unused_imports(source) == ["math (line 2)"]


# __init__ imports only to re-export
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def name_uses(source: str, name: str) -> list[str]:
    """How a module names ``name``: 'read', 'import' or 'class', in source order."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == name:
            uses.append("read")
        elif isinstance(node, ast.Attribute) and node.attr == name:
            uses.append("read")
        elif isinstance(node, ast.alias) and node.name == name:
            uses.append("import")
        elif isinstance(node, ast.ClassDef) and node.name == name:
            uses.append("class")
    return uses


def test_capacity_check_finds_each_kind_of_use():
    assert name_uses("'CapacityError'\nx = errors.InputError\n", "CapacityError") == []
    assert name_uses("raise CapacityError('x')\n", "CapacityError") == ["read"]
    assert name_uses("raise errors.CapacityError('x')\n", "CapacityError") == ["read"]
    assert name_uses("from .errors import CapacityError as C\n", "CapacityError") == ["import"]
    assert name_uses("class CapacityError(Exception): pass\n", "CapacityError") == ["class"]


# Capacity errors are raised only by limits.check_work; __init__ re-exports the class.
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in {"errors.py", "limits.py"}), ids=lambda p: p.name
)
def test_only_limits_names_capacity_error(path):
    expected = ["import"] if path.name == "__init__.py" else []
    assert name_uses(path.read_text(), "CapacityError") == expected


# The precision bounds are applied only by limits.check_precision.
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "limits.py"), ids=lambda p: p.name)
def test_only_limits_reads_the_precision_bounds(path):
    source = path.read_text()
    assert name_uses(source, "MIN_PRECISION_DIGITS") + name_uses(source, "MAX_PRECISION_DIGITS") == []


def error_classes(source: str) -> set[str]:
    """``FraczetaError`` and the name of every class ``source`` derives from it."""
    names = {"FraczetaError"}
    for node in ast.walk(ast.parse(source)):  # a class comes after its bases
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) in names for base in node.bases):
            names.add(node.name)
    return names


ERROR_CLASSES = error_classes((PACKAGE / "errors.py").read_text())


def message_faults(source: str, classes=ERROR_CLASSES) -> list[str]:
    """``line N: fault`` for each error message that is not a template filled in by keyword.

    A message is the first argument given to an error class, or to
    ``super().__init__`` inside one, and the ``what`` of ``check_work``,
    which also fills in ``amount`` and ``cap``.  ``FraczetaError`` shows each
    keyword value by one rule before it fills the template in, so a message
    built beforehand, by f-string, ``%`` or ``.format``, skips that rule,
    and a field with no keyword fails when the error is built.
    """
    faults = []

    def check(call, owner):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        is_super = name == "__init__" and getattr(getattr(call.func, "value", None), "func", None) is not None
        if name in classes or (is_super and owner in classes - {"FraczetaError"}):
            message, given = call.args[:1], set()
        elif name == "check_work":
            message, given = [kw.value for kw in call.keywords if kw.arg == "what"] + call.args[2:3], {"amount", "cap"}
        else:
            return
        given |= {kw.arg for kw in call.keywords if kw.arg and kw.value not in message}
        for node in (n for arg in message for n in ast.walk(arg)):
            if isinstance(node, ast.JoinedStr):
                faults.append(f"line {call.lineno}: f-string")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                faults.append(f"line {call.lineno}: % formatting")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "format":
                faults.append(f"line {call.lineno}: .format")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for field in (f for _, f, _, _ in string.Formatter().parse(node.value) if f is not None):
                    if re.split(r"[.\[]", field)[0] not in given:
                        faults.append(f"line {call.lineno}: {{{field}}} has no keyword")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                check(child, owner)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(source), None)
    return faults


def test_message_check_finds_each_fault():
    source = (
        'raise InputError(f"got {n}")\n'
        'raise errors.ParseError("line %d" % n)\n'
        'raise DomainError("s = {}".format(s))\n'
        'raise InputError("got {n} of {m}", n=n)\n'
        'check_work(n, CAP, f"{n} items")\n'
        'limits.check_work(n, CAP, what="{amount} of {what}")\n'
        'raise InputError("{n!r} in {x.y} at {z[0]}, above {cap}", n=n, x=x, z=z)\n'
        'class AddressError(InputError):\n'
        '    def __init__(self, n):\n'
        '        super().__init__(f"index {n}")\n'
        'class FraczetaError(Exception):\n'
        '    def __init__(self, message, **values):\n'
        '        super().__init__(message.format(**values))\n'
        'raise InputError("{n} items", n=n)\n'
        'check_work(n, CAP, "{amount} items, above {cap}", k=k)\n'
        'raise ValueError(f"got {n}")\n'
    )
    assert message_faults(source) == [
        "line 1: f-string",
        "line 2: % formatting",
        "line 3: .format",
        "line 3: {} has no keyword",
        "line 4: {m} has no keyword",
        "line 5: f-string",
        "line 6: {what} has no keyword",
        "line 7: {cap} has no keyword",
        "line 10: f-string",
    ]


def test_label_check_finds_an_f_string():
    source = (
        'check_work(n, CAP, f"{n} items")\n'
        'limits.check_work(n, CAP, what=f"{n} items")\n'
        'check_work(n, CAP, "{amount} items", n=f"{n}")\n'
    )
    assert message_faults(source) == ["line 1: f-string", "line 2: f-string"]


# Every error message, and each check_work label, is a template whose values
# FraczetaError shows by one rule.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_check_work_labels_are_templates(path):
    assert message_faults(path.read_text()) == []


# errors.shown is the one rule that shows a value in a message; label_text was its text half.
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name)
def test_only_errors_shows_message_values(path):
    source = path.read_text()
    assert name_uses(source, "int_text") + name_uses(source, "label_text") == []
    assert "import" not in name_uses(source, "shown")


def open_callers(source: str) -> list[str]:
    """The function around each call of ``open`` or ``x.open``, in source order; '<module>' outside any."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == "open":
                callers.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_open_check_finds_each_caller():
    source = (
        "def f(p):\n"
        "    open(p)\n"
        "    def g(q):\n"
        "        return q.open()\n"
        "    return [opened(p)]\n"
        "os.open('x')\n"
    )
    assert open_callers(source) == ["f", "g", "<module>"]


# Every artifact the command line writes goes through one writer.
def test_cli_opens_files_in_one_function():
    assert open_callers((PACKAGE / "cli.py").read_text()) == ["_write"]


def comment_builders(source: str) -> list[str]:
    """The function around each string constant or f-string that starts with '# ', in source order; '<module>' outside any."""
    builders = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            head = child.values[0] if isinstance(child, ast.JoinedStr) and child.values else child
            # a constant directly in an f-string is one of its parts, checked with the f-string
            text = head.value if isinstance(head, ast.Constant) and not isinstance(node, ast.JoinedStr) else None
            if isinstance(text, str) and text.startswith("# "):
                builders.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return builders


def test_comment_check_finds_each_builder():
    source = (
        "def f(fp, line):\n"
        "    fp.write('# note\\n')\n"
        "    def g(m):\n"
        "        return f'# manifest: {m}'\n"
        "    return f'{line} # not first', '#no space', b'# bytes'\n"
        "HEAD = '# ' + 'x'\n"
    )
    assert comment_builders(source) == ["f", "g", "<module>"]


# Library writers emit only their payload; the command line alone frames an
# artifact with its '# manifest:' line.
def test_only_cli_write_builds_a_comment_line():
    found = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py")) for owner in comment_builders(path.read_text())]
    assert found == [("cli.py", "_write")]


def test_zeros_and_limits_load_without_zeta():
    code = (
        "import sys\n"
        "import fraczeta.zeros, fraczeta.limits\n"
        "print(*sorted(m for m in sys.modules if m.startswith('fraczeta.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert res.stdout.split() == ["fraczeta.errors", "fraczeta.limits", "fraczeta.zeros"]


def test_readme_quick_tour_is_the_golden_tour():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = readme.split("## CLI quick tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.removeprefix("fraczeta ") for line in block.splitlines() if line]
    assert commands == TOUR

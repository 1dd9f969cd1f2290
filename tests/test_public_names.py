"""Every public name of the package is reached from outside its own
definition: by another function of the package (the re-exports of
``__init__`` do not count) or by the benchmark's scripts.  That holds for
top-level functions and classes, for the fields, methods and properties of
public classes, and for the defaulted parameters of public functions.
Library API that only the tests reach belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sawspec"

# public names with no caller yet, each with the reason it stays
NO_CALLER_YET = {
    "sawtooth_model": "the sawtooth model of each dataset kind, whose "
    "distribution the C(k), spectrum and totient error data are to be "
    "compared against",
    "spectrum_point_truncated": "the independent truncated route of the "
    "three-way spectrum agreement",
}

# public class members read nowhere yet, each with the reason it stays
NO_READER_YET = {
    "CharacterTable.residual": "the S(1) health number build_table checks, "
    "which the CLI meta block is to print",
    "CharacterTable.gauss": "the Gauss-sum row, held by the tests to "
    "|tau| = sqrt(q)",
}


def _modules():
    return [
        (path.name, ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _scripts():
    return [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]


def _referenced(node) -> set[str]:
    """The names and attribute names read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attributes_read(node) -> set[str]:
    """The attribute names loaded anywhere under ``node``."""
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _public(body, kind) -> list:
    """The definitions of ``kind`` in ``body`` whose names are public."""
    return [n for n in body if isinstance(n, kind) and not n.name.startswith("_")]


def test_every_public_name_reaches_a_caller():
    defined = {}
    used = set()
    for module, tree in _modules():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = module
            used |= _referenced(node) - {own}
    for tree in _scripts():
        used |= _referenced(tree)
    unreached = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in NO_CALLER_YET
    )
    assert not unreached, f"public names no caller reaches: {unreached}"
    # an entry leaves the list once its name is gone or has a caller
    assert set(NO_CALLER_YET) <= set(defined)
    assert not set(NO_CALLER_YET) & used


def _members(cls: ast.ClassDef) -> list[str]:
    """The public fields, methods and properties of a class."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        elif isinstance(node, ast.FunctionDef):
            out.append(node.name)
    return [name for name in out if not name.startswith("_")]


def test_every_public_member_is_read():
    trees = [tree for _, tree in _modules()] + _scripts()
    read = set().union(*map(_attributes_read, trees))
    members = {
        f"{cls.name}.{name}"
        for _, tree in _modules()
        for cls in _public(tree.body, ast.ClassDef)
        for name in _members(cls)
    }
    unread = sorted(
        m for m in members if m.split(".")[1] not in read and m not in NO_READER_YET
    )
    assert not unread, f"public members nothing reads: {unread}"
    # an entry leaves the list once its member is gone or is read
    assert set(NO_READER_YET) <= members
    assert not {m.split(".")[1] for m in NO_READER_YET} & read


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_passed():
    """A defaulted parameter that no call passes, by position or keyword,
    is a knob only the tests turn; it belongs in a module constant."""
    calls = {}
    for tree in [tree for _, tree in _modules()] + _scripts():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    unpassed = []
    for module, tree in _modules():
        for fn in _public(tree.body, ast.FunctionDef):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for i, name in defaulted:
                if not any(
                    (i is not None and len(call.args) > i)
                    or any(kw.arg in (name, None) for kw in call.keywords)
                    for call in calls.get(fn.name, [])
                ):
                    unpassed.append(f"{module}:{fn.name}({name})")
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"

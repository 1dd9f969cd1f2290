"""Every public function and class defined in the package is reached from
outside its own definition: by another function of the package (the
re-exports of ``__init__`` do not count) or by the benchmark's scripts.
Library API that only the tests reach belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sawspec"

# public names with no caller yet, each with the reason it stays
NO_CALLER_YET = {
    "continuous_model_eval": "the C sawtooth model, whose distribution the "
    "C(k) data is to be compared against",
    "rtilde_truncated_model": "the Mobius sawtooth model, whose distribution "
    "the totient error data is to be compared against",
    "spectrum_point_truncated": "the independent truncated route of the "
    "three-way spectrum agreement",
}


def _referenced(node) -> set[str]:
    """The names and attribute names read anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_name_reaches_a_caller():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.name
            used |= _referenced(node) - {own}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    unreached = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in NO_CALLER_YET
    )
    assert not unreached, f"public names no caller reaches: {unreached}"
    # an entry leaves the list once its name is gone or has a caller
    assert set(NO_CALLER_YET) <= set(defined)
    assert not set(NO_CALLER_YET) & used

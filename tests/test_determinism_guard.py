"""Determinism guard over the package sources, by static inspection only.

Every answer the engine gives is deterministic except where a known
algorithm is still missing: the trial loop of is_isomorphic, which ends in
"probably_no", and random_module, which draws test and demo inputs.  Any
other use of numpy's random generators in src/ (a call, an annotation, an
import or a comment) fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ladderkit"
ALLOWED = {"is_isomorphic", "random_module"}
MARKERS = ("default_rng", "np.random", "numpy.random")


def _allowed_lines(tree: ast.Module) -> dict:
    """Line span of each allowed top-level function, by name."""
    return {n.name: range(n.lineno, n.end_lineno + 1) for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ALLOWED}


def _random_uses() -> dict:
    """(file, line) -> the allowed function holding it, or None, for every line of src/ naming a marker."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        spans = _allowed_lines(ast.parse(text, filename=str(path)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if any(m in line for m in MARKERS):
                out[(path.name, lineno)] = next((name for name, span in spans.items() if lineno in span), None)
    return out


def test_randomness_only_in_the_isomorphism_trials_and_random_module():
    uses = _random_uses()
    assert [f"{fname}:{lineno}" for (fname, lineno), owner in uses.items() if owner is None] == []


def test_the_guard_sees_both_allowed_uses():
    assert set(_random_uses().values()) == ALLOWED

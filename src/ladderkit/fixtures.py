"""Built-in fixture algebras and the JSON algebra-spec loader.

Fixture names double as the test corpus: small triangular rings, the
two-vertex self-injective quiver algebra, the dual numbers, the 2 x 2 block
construction with an ideal above the diagonal, the full matrix algebra and an
ideal-chain block algebra.  Users supply further algebras as JSON files.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    Idempotent,
    QuiverPresentation,
    algebra_from_quiver,
    algebra_from_structure_constants,
    build_ideal_matrix_algebra,
    build_morita_square,
    build_triangular,
    dual_numbers_algebra,
    ground_field_algebra,
    preprojective_a2,
)
from .linalg import Field

__all__ = ["FIXTURES", "Fixture", "load_fixture", "load_algebra_spec", "parse_idempotent", "fixture_names"]


class Fixture:
    def __init__(self, name: str, build, default_idempotent: Optional[str], description: str):
        self.name = name
        self.build = build
        self.default_idempotent = default_idempotent  # e.g. "e2" or "e5+e6"
        self.description = description


def _t2(field: Field) -> Algebra:
    return build_triangular(ground_field_algebra(field), 2)


def _t3(field: Field) -> Algebra:
    return build_triangular(ground_field_algebra(field), 3)


def _m2k(field: Field) -> Algebra:
    return build_ideal_matrix_algebra(ground_field_algebra(field), field.eye(1), 2)


def _prop32(field: Field) -> Algebra:
    base = dual_numbers_algebra(field)
    ideal = field.asarray(base.element_from_label("x")).reshape(2, 1)
    return build_ideal_matrix_algebra(base, ideal, 2)


def _ideal_chain(field: Field) -> Algebra:
    base = _t2(field)
    e21 = base.element_from_label("E[2,1]:0")
    e22 = base.element_from_label("E[2,2]:0")
    i1 = np.stack([e21, e22], axis=1)  # column ideal at vertex 2
    i2 = field.asarray(e21).reshape(3, 1)  # the radical
    return build_ideal_matrix_algebra(base, [i1, i2], 3)


def _morita_square_k(field: Field) -> Algebra:
    return build_morita_square(ground_field_algebra(field))


FIXTURES = {
    f.name: f
    for f in [
        Fixture("t2", _t2, "e2", "lower triangular 2x2 over the ground field"),
        Fixture("t3", _t3, "e3", "lower triangular 3x3 over the ground field"),
        Fixture(
            "preproj-a2",
            preprojective_a2,
            "e1",
            "two vertices, arrows both ways, both 2-cycles zero (self-injective)",
        ),
        Fixture("dual-numbers", dual_numbers_algebra, None, "k[x]/(x^2); no nontrivial idempotent"),
        Fixture(
            "prop32-dual-numbers",
            _prop32,
            "e2",
            "2x2 block ring over k[x]/(x^2) with the radical above the diagonal",
        ),
        Fixture("morita-square-k", _morita_square_k, "e1", "4-dim square-shaped ring over the ground field"),
        Fixture("m2k", _m2k, "e1", "full 2x2 matrix algebra (semisimple)"),
        Fixture(
            "ideal-chain",
            _ideal_chain,
            "e5+e6",
            "3x3 block ring over T2 with a decreasing chain of ideals above the diagonal",
        ),
    ]
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_fixture(name: str, field: Field) -> tuple[Algebra, Optional[str]]:
    if name not in FIXTURES:
        raise AlgebraError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    fx = FIXTURES[name]
    return fx.build(field), fx.default_idempotent


def parse_idempotent(algebra: Algebra, spec) -> Idempotent:
    """Idempotent from 'e1', 'e1+e3' (1-based distinguished idempotents) or a
    coefficient vector."""
    f = algebra.field
    if isinstance(spec, str):
        total = f.zeros(algebra.dim)
        for part in spec.split("+"):
            part = part.strip()
            if not part.startswith("e"):
                raise AlgebraError(f"bad idempotent spec {spec!r}; use e<i> or e<i>+e<j> or a coefficient vector")
            idx = int(part[1:]) - 1
            if not 0 <= idx < len(algebra.prim_idempotents):
                raise AlgebraError(f"idempotent index {part} out of range (1..{len(algebra.prim_idempotents)})")
            total = f.normalize(total + algebra.prim_idempotents[idx])
        return Idempotent(algebra, total)
    return Idempotent(algebra, f.asarray(spec))


# -- JSON algebra specs ---------------------------------------------------------


def _field_from_json(spec: dict, default_prime: int = 101) -> Field:
    fs = spec.get("field")
    if fs is None:
        return Field(default_prime)
    if not isinstance(fs, dict):
        raise AlgebraError(f"'field' must be a JSON object, got {fs!r}")
    if _key(fs, "rational", lambda v: type(v) is bool, "true or false", False):
        return Field(None)
    return Field(_key(fs, "prime", _is_int, "an integer", default_prime))


def _base_from_json(payload, field: Field) -> Algebra:
    if payload in (None, "ground"):
        return ground_field_algebra(field)
    if isinstance(payload, dict):
        return _algebra_from_json(payload, field)
    raise AlgebraError("base must be 'ground' or a nested algebra spec")


def _key(spec: dict, key: str, ok=None, kind="", default=...):
    """A key of an algebra spec, required unless it has a default; any other value is of the kind ok accepts."""
    if key not in spec and default is ...:
        raise AlgebraError(f"algebra spec of kind {spec.get('kind')!r} lacks the required key {key!r}")
    value = spec.get(key, default)
    if value is not default and ok is not None and not ok(value):
        raise AlgebraError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _is_int(v) -> bool:
    return type(v) is int  # neither a bool, nor a float, nor a string


def _is_list_of(ok):
    return lambda v: isinstance(v, list) and all(ok(x) for x in v)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_arrow(a) -> bool:
    return isinstance(a, list) and len(a) == 3 and _is_int(a[0]) and _is_int(a[1]) and _is_str(a[2])


def _is_idempotent_spec(v) -> bool:
    return _is_str(v) or _is_list_of(lambda x: _is_int(x) or _is_str(x))(v)


def _algebra_from_json(spec: dict, field: Field) -> Algebra:
    kind = spec.get("kind")
    if kind == "structure_constants":
        mult, unit = _key(spec, "mult"), _key(spec, "unit")
        idempotents = _key(spec, "prim_idempotents", _is_list_of(lambda e: isinstance(e, list)), "a list of coefficient vectors")
        return algebra_from_structure_constants(field, mult, unit, idempotents, _key(spec, "labels", _is_list_of(_is_str), "a list of strings", None))
    if kind == "quiver":
        q = QuiverPresentation(
            vertices=_key(spec, "vertices", _is_int, "an integer"),
            arrows=_key(spec, "arrows", _is_list_of(_is_arrow), "a list of [source, target, name]"),
            monomial_relations=_key(spec, "relations", _is_list_of(_is_list_of(_is_str)), "a list of lists of arrow names", []),
            path_length_bound=_key(spec, "path_length_bound", _is_int, "an integer", 8),
        )
        return algebra_from_quiver(q, field)
    if kind == "triangular":
        return build_triangular(_base_from_json(spec.get("base"), field), _key(spec, "n", _is_int, "an integer"))
    if kind == "ideal_matrix":
        base = _base_from_json(spec.get("base"), field)
        if "ideals" in spec:
            # each ideal is a list of basis vectors in base coordinates
            ideals = _key(spec, "ideals", _is_list_of(lambda b: isinstance(b, list)), "a list of lists of basis vectors")
            ideals = [field.asarray(np.array(b, dtype=object).tolist()).reshape(-1, base.dim).T for b in ideals]
            return build_ideal_matrix_algebra(base, ideals, _key(spec, "n", _is_int, "an integer"))
        ideal = field.asarray(_key(spec, "ideal")).reshape(-1, base.dim).T
        return build_ideal_matrix_algebra(base, ideal, _key(spec, "n", _is_int, "an integer"))
    if kind == "morita_square":
        return build_morita_square(_base_from_json(spec.get("base"), field))
    raise AlgebraError(f"unknown algebra kind {kind!r}")


def load_algebra_spec(path_or_name: str, default_prime: int = 101):
    """Fixture name or path to a JSON spec.  Returns (algebra, default
    idempotent spec or None, field)."""
    if path_or_name in FIXTURES:
        field = Field(default_prime)
        alg, default_e = load_fixture(path_or_name, field)
        return alg, default_e, field
    try:
        with open(path_or_name) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise AlgebraError(f"{path_or_name!r} is neither a fixture name nor a readable file")
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"could not parse {path_or_name}: {exc}")
    if not isinstance(spec, dict):
        raise AlgebraError(f"algebra spec in {path_or_name} must be a JSON object, got {type(spec).__name__}")
    field = _field_from_json(spec, default_prime)
    idempotent = _key(spec, "idempotent", _is_idempotent_spec, "a string like 'e1+e2' or a list of coefficients", None)
    return _algebra_from_json(spec, field), idempotent, field

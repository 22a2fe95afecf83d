"""Dead-code guard over the package sources, by static inspection only.

Every module-level private function or class must be referred to somewhere
in src/ outside its own definition, every name a module lists in a
literal __all__ must be bound at its top level and read outside its own
definition (in src/, tests/, demos/ or ladderbench/), every parameter of
every function (other than self/cls) must be read in its body, and every
defaulted parameter must be set by some call.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ladderkit"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
USERS = {path: ast.parse(path.read_text(), filename=str(path)) for d in ("tests", "demos", "ladderbench") for path in sorted((ROOT / d).rglob("*.py"))}


def _names_in(node) -> Counter:
    """Names a subtree refers to: variables, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _top_level_bindings(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _literal_all(tree: ast.Module):
    """A module's __all__ when it is a literal list, else None (the package
    __init__ computes its own from what it imports)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return [ast.literal_eval(e) for e in node.value.elts]
    return None


def test_private_definitions_are_used():
    total = sum((_names_in(tree) for tree in TREES.values()), Counter())
    unused = []
    for fname, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                # a recursive call or a method body naming its own class is no use
                if total[node.name] - _names_in(node)[node.name] == 0:
                    unused.append(f"{fname}:{node.name}")
    assert unused == []


def test_all_entries_are_defined():
    missing = []
    for fname, tree in TREES.items():
        exported = _literal_all(tree) or []
        bound = _top_level_bindings(tree)
        missing += [f"{fname}:{name}" for name in exported if name not in bound]
    assert missing == []


def _uses_in(node) -> Counter:
    """Names a subtree reads as variables or attributes; an import or a
    re-export alone is not a use."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_all_entries_are_used():
    """A name in a literal __all__ is read somewhere outside its own
    definition: in src/ (its own module included, where a public type may be
    read only as an annotation), tests/, demos/ or ladderbench/."""
    total = sum((_uses_in(tree) for tree in [*TREES.values(), *USERS.values()]), Counter())
    unused = []
    for fname, tree in TREES.items():
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _literal_all(tree) or []:
            own = _uses_in(defs[name])[name] if name in defs else 0
            if total[name] - own == 0:
                unused.append(f"{fname}:{name}")
    assert unused == []


def test_the_guard_sees_the_package():
    assert {"verify.py", "recollement.py", "homological.py"} <= set(TREES)
    assert sum(_literal_all(tree) is not None for tree in TREES.values()) >= 5
    assert {"tests", "demos", "ladderbench"} == {path.relative_to(ROOT).parts[0] for path in USERS}


def _unread_parameters(fn) -> list:
    """Parameters of a function (other than self/cls) that its body never reads."""
    args = fn.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, [args.vararg, args.kwarg])]
    read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p.arg for p in params if p.arg not in ("self", "cls") and p.arg not in read]


def test_parameters_are_used():
    unread = []
    for fname, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unread += [f"{fname}:{node.name}({p})" for p in _unread_parameters(node)]
    assert unread == []


def _callees() -> list:
    """(name a call uses, function) for every function in src/: a function
    or method under its own name, an __init__ under its class's name."""
    out = []
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out += [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "__init__":
                out.append((node.name, node))
    return out


def _set_by(call: ast.Call, fn) -> set:
    """The parameters of fn that a call sets, by position or by keyword; a
    keyword passed a variable of its own name (trials=trials) only passes
    the caller's parameter on and sets nothing."""
    positional = [p.arg for p in (*fn.args.posonlyargs, *fn.args.args)]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    ahead = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))
    by_keyword = {kw.arg for kw in call.keywords if kw.arg is not None and not (isinstance(kw.value, ast.Name) and kw.value.id == kw.arg)}
    return {*positional[:ahead], *by_keyword}


def test_options_are_set_by_some_call():
    """Every defaulted parameter of a function in src/ is set by some call in
    src/, tests/, demos/ or ladderbench/; one that never is takes one value
    only and belongs in the body as a constant."""
    callees = _callees()
    calls: dict = {}
    for tree in [*TREES.values(), *USERS.values()]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                calls.setdefault(call.func.id if isinstance(call.func, ast.Name) else call.func.attr, []).append(call)
    unset = []
    for name, fn in callees:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = [p.arg for p in positional[len(positional) - len(args.defaults) :]]
        defaulted += [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        set_somewhere = set().union(*(_set_by(call, fn) for call in calls.get(name, [])))
        unset += [f"{name}({p})" for p in defaulted if p not in set_somewhere]
    assert unset == []

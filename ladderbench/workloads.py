"""The four benchmark workloads: seeded input generators, timed items, checks.

Each workload builds its inputs from the seed in setup() and then, in run(),
times every input as one item on the Clock and checks its output.  The seed
is a benchmark argument; ladderkit only ever sees the generated inputs.

Reference values for the checks are in reference.json (make_reference.py
records them).  Checks look at verdict kind, n and period, Gorenstein
bounds, stratifying status and Tor vectors, never at rung lists.
"""

from __future__ import annotations

import numpy as np

# Calls go through the package namespace (lk.name at call time), so the
# traced pass's rebinding of ladderkit's public functions sees them.
import ladderkit as lk
import ladderkit.verify as lk_verify
from ladderkit import Field, Idempotent, QuiverPresentation
from ladderkit.fixtures import load_fixture, parse_idempotent

from harness import REFERENCE

MAX_STEPS = 12
CUTOFF = 8
KXY_CUTOFF = 6

# -- algebra corpus -----------------------------------------------------------


def triangular(n: int, field: Field):
    return lk.build_triangular(lk.ground_field_algebra(field), n)


def cyclic_nakayama(n: int, loewy: int, field: Field):
    """Cyclic quiver on n vertices with every path of length loewy zero
    (self-injective, dimension n * loewy)."""
    arrows = [(i, (i + 1) % n, f"a{i}") for i in range(n)]
    rels = [tuple(f"a{(i + k) % n}" for k in range(loewy)) for i in range(n)]
    return lk.algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def linear_nakayama(n: int, loewy: int, field: Field):
    """Linear quiver 0 -> 1 -> ... -> n-1 with every path of length loewy zero."""
    arrows = [(i, i + 1, f"a{i}") for i in range(n - 1)]
    rels = [tuple(f"a{i + k}" for k in range(loewy)) for i in range(n - loewy)]
    return lk.algebra_from_quiver(QuiverPresentation(n, arrows, rels, path_length_bound=loewy), field)


def local_kxy(field: Field):
    """k[x, y]/(x, y)^2: local, not Gorenstein; syzygies double each step."""
    loops = [(0, 0, "x"), (0, 0, "y")]
    rels = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    return lk.algebra_from_quiver(QuiverPresentation(1, loops, rels, path_length_bound=2), field)


def permuted(alg, perm):
    """The same algebra in the basis b'_i = b_perm[i]."""
    p = np.asarray(perm)
    mult = alg.mult[np.ix_(p, p, p)]
    labels = [alg.labels[i] for i in p] if alg.labels is not None else None
    return lk.algebra_from_structure_constants(
        alg.field, mult, alg.unit[p], [e[p] for e in alg.prim_idempotents], labels=labels
    )


def vertex_recollement(alg, i: int):
    return lk.build_recollement(alg, Idempotent(alg, alg.prim_idempotents[i]))


def verdict_key(v) -> dict:
    return {"kind": v.kind, "n": v.n, "period": v.period}


def gorenstein_key(rep) -> dict:
    j = rep.to_json()
    return {k: j[k] for k in ("spli", "silp", "gorenstein", "gdim", "injective_pds", "projective_ids")}


def stratifying_key(res: dict) -> dict:
    return {"status": res["status"], "tor_dims": list(res["tor_dims"])}


# -- workloads ------------------------------------------------------------------


class VerifyPaper:
    """run_suite(seed=S) with default parameters; each criterion (and the
    suite's shared context) is one timed item."""

    name = "verify-paper"
    ITEMS = ["_context"] + [f"_c{i}" for i in range(1, 11)]

    def setup(self, seed: int):
        # what the suite builds before its criteria: the fixture recollements
        field = Field(101)
        recs = []
        for name in lk_verify.RECOLLEMENT_FIXTURES:
            alg, default_e = load_fixture(name, field)
            recs.append(lk.build_recollement(alg, parse_idempotent(alg, default_e)))
        return recs

    def run(self, inputs, clock, checks, seed: int):
        originals = {name: getattr(lk_verify, name) for name in self.ITEMS}

        def timed(name, fn):
            label = "context" if name == "_context" else name[1:]

            def wrapper(*args, **kwargs):
                with clock.item(label) as it:
                    return it.call("verify_paper", fn, *args, **kwargs)

            return wrapper

        for name, fn in originals.items():
            setattr(lk_verify, name, timed(name, fn))
        try:
            report = lk_verify.run_suite(seed=seed)
        except Exception as exc:
            checks.error("run_suite", exc)
            return None
        finally:
            for name, fn in originals.items():
                setattr(lk_verify, name, fn)
        for c in report["criteria"]:
            checks.check(f"c{c['criterion']}", c["status"] == "PASS", c["status"])
        checks.check("overall", report["status"] == "PASS" and len(report["criteria"]) == 10, report["status"])
        return report


class LadderTowers:
    """ladder_report(rec, 12, S) on t_2..t_8 at the last vertex and on cyclic
    Nakayama algebras at a seeded vertex (rotation symmetry: same verdict)."""

    name = "ladder-towers"
    TRIANGULAR = range(2, 9)
    CYCLIC = [(3, 2), (3, 3), (4, 3), (5, 4), (6, 5)]

    def setup(self, seed: int):
        field = Field(101)
        rng = np.random.default_rng(seed)
        inputs = [(f"t{n}", vertex_recollement(triangular(n, field), n - 1)) for n in self.TRIANGULAR]
        for n, loewy in self.CYCLIC:
            inputs.append((f"cyclic{n}_{loewy}", vertex_recollement(cyclic_nakayama(n, loewy, field), int(rng.integers(n)))))
        return inputs

    def run(self, inputs, clock, checks, seed: int):
        ref = REFERENCE["ladder-towers"]
        for name, rec in inputs:
            with clock.item(name) as it:
                try:
                    rep = it.call("ladder", lk.ladder_report, rec, MAX_STEPS, seed)
                except Exception as exc:
                    checks.error(name, exc)
                    continue
            got = {"r": verdict_key(rep.r_verdict), "l": verdict_key(rep.l_verdict)}
            checks.check(name, got == ref[name], got)


class Resolutions:
    """spli_silp(., 8) and is_stratifying at every non-unit vertex
    idempotent over t_n and linear Nakayama algebras, plus spli_silp(., 6)
    on k[x,y]/(x,y)^2; every algebra in a seeded random basis order."""

    name = "resolutions"
    TRIANGULAR = range(2, 9)
    LINEAR = [(6, 2), (8, 2), (10, 2), (8, 3), (10, 3)]

    def corpus(self, field: Field):
        out = [(f"t{n}", triangular(n, field)) for n in self.TRIANGULAR]
        out += [(f"linear{n}_{loewy}", linear_nakayama(n, loewy, field)) for n, loewy in self.LINEAR]
        out.append(("kxy", local_kxy(field)))
        return out

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        inputs = []
        for name, alg in self.corpus(Field(101)):
            alg = permuted(alg, rng.permutation(alg.dim))
            k = len(alg.prim_idempotents)
            recs = [vertex_recollement(alg, i) for i in range(k)] if k > 1 else []
            inputs.append((name, alg, recs))
        return inputs

    def run(self, inputs, clock, checks, seed: int):
        ref = REFERENCE[self.name]
        for name, alg, recs in inputs:
            cutoff = KXY_CUTOFF if name == "kxy" else CUTOFF
            with clock.item(name) as it:
                try:
                    gor = it.call("gorenstein", lk.spli_silp, alg, cutoff)
                    strat = [it.call("stratifying", lk.is_stratifying, rec, CUTOFF) for rec in recs]
                except Exception as exc:
                    checks.error(name, exc)
                    continue
            got = {"gorenstein": gorenstein_key(gor), "stratifying": [stratifying_key(s) for s in strat]}
            checks.check(name, got == ref[name], got)
            if gor.spli.is_exact and gor.silp.is_exact:
                checks.check(f"{name}: spli = silp", gor.spli.n == gor.silp.n, [gor.spli.n, gor.silp.n])


class Rational:
    """ladder_report, spli_silp and is_stratifying over Field(None) on
    t_2..t_4 (last vertex) and preproj-a2 (e1), in a seeded basis order."""

    name = "rational"

    def corpus(self, field: Field):
        out = [(f"t{n}", triangular(n, field), n - 1) for n in range(2, 5)]
        out.append(("preproj-a2", lk.preprojective_a2(field), 0))
        return out

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        inputs = []
        for name, alg, vertex in self.corpus(Field(None)):
            alg = permuted(alg, rng.permutation(alg.dim))
            inputs.append((name, alg, vertex_recollement(alg, vertex)))
        return inputs

    def run(self, inputs, clock, checks, seed: int):
        ref = REFERENCE[self.name]
        for name, alg, rec in inputs:
            with clock.item(name) as it:
                try:
                    rep = it.call("ladder", lk.ladder_report, rec, MAX_STEPS, seed)
                    gor = it.call("gorenstein", lk.spli_silp, alg, CUTOFF)
                    strat = it.call("stratifying", lk.is_stratifying, rec, CUTOFF)
                except Exception as exc:
                    checks.error(name, exc)
                    continue
            got = {
                "r": verdict_key(rep.r_verdict),
                "l": verdict_key(rep.l_verdict),
                "gorenstein": gorenstein_key(gor),
                "stratifying": stratifying_key(strat),
            }
            checks.check(name, got == ref[name], got)


WORKLOADS = {w.name: w for w in (VerifyPaper(), LadderTowers(), Resolutions(), Rational())}

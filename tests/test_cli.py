import hashlib
import json

import pytest

from ladderkit.cli import EXIT_INPUT, main
from ladderkit.verify import RECOLLEMENT_FIXTURES, json_bytes



def test_ladder_command(tmp_path, capsys):
    out = tmp_path / "ladder.json"
    code = main(["ladder", "--algebra", "prop32-dual-numbers", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "r-height: Exact(3)" in text
    assert "l-height: Exact(1)" in text
    payload = json.loads(out.read_text())
    assert payload["report"]["r_height"]["n"] == 3
    assert payload["report"]["l_height"]["n"] == 1
    assert payload["seed"] == 0


def test_ladder_periodic_fixture(capsys):
    assert main(["ladder", "--algebra", "preproj-a2"]) == 0
    text = capsys.readouterr().out
    assert "PeriodicInfinite(period=3" in text


def test_ladder_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["ladder", "--algebra", "t2", "--seed", "7", "--json", str(a)]) == 0
    assert main(["ladder", "--algebra", "t2", "--seed", "7", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_recollement_command(tmp_path, capsys):
    out = tmp_path / "rec.json"
    assert main(["recollement", "--algebra", "t2", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3 middle indecomposables, 1 corner indecomposables, 1 quotient indecomposables: PASS" in text
    payload = json.loads(out.read_text())
    assert payload["status"] == "PASS"
    assert payload["pools"] == {side: {"certified": True, "modules": k} for side, k in (("middle", 3), ("corner", 1), ("quotient", 1))}
    assert payload["failures"] == []


def test_recollement_command_where_not_certified(tmp_path, capsys):
    # over F_5 the trace-form radical of t3 (dim 6) is out of reach, so its
    # pool is the three A.e_i and their three duals over the opposite; the
    # corner and the quotient algebra (dims 1 and 3) are still certified
    out = tmp_path / "rec.json"
    assert main(["recollement", "--algebra", "t3", "--prime", "5", "--json", str(out)]) == 0
    assert "6 middle pool modules, 1 corner indecomposables, 3 quotient indecomposables: PASS" in capsys.readouterr().out
    pools = json.loads(out.read_text())["pools"]
    assert pools["middle"] == {"certified": False, "modules": 6}


def test_recollement_command_on_a_quiver_spec_beyond_nakayama(tmp_path, capsys):
    # the path algebra of A_3 oriented 1 -> 2 <- 3 is not Nakayama: its pool
    # holds 6 modules, every indecomposable once
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"kind": "quiver", "vertices": 3, "arrows": [[0, 1, "a"], [2, 1, "b"]]}))
    assert main(["recollement", "--algebra", str(path), "--idempotent", "e1"]) == 0
    assert "6 middle pool modules, 1 corner indecomposables, 3 quotient indecomposables: PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "--algebra", "t2", "--max-steps", "-3"],
        ["stratifying", "--algebra", "t2", "--cutoff", "-1"],
        ["recollement", "--algebra", "t2", "--samples", "0"],
    ],
    ids=["max-steps", "cutoff", "samples"],
)
def test_counts_below_one_exit_2(argv, capsys):
    # --samples is no option any more: the pools are deterministic
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert ("unrecognized arguments: --samples 0" if "--samples" in argv else "must be at least 1") in err


@pytest.mark.parametrize("command", ["ladder", "harness"])
def test_negative_seed_exit_2(command, capsys):
    # the seed feeds numpy's generator, which takes no negative seed
    with pytest.raises(SystemExit) as exc:
        main([command, "--algebra", "t3", "--seed", "-1"])
    assert exc.value.code == EXIT_INPUT
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


# sha256 of `harness --algebra A --json` at the default seed and prime; these
# reports are not covered by the verify-paper digest.  Update one only in a
# change that alters the harness report on purpose and says so in CHANGES.md.
HARNESS_SHA256 = {
    "t2": "627f4d030f268c6cf092a5c37e721f5379220237b3b54e45b4a7f386dcc343fc",
    "prop32-dual-numbers": "2a82d009d871aefc45e9e528c177af7283d9cd1179b02845f223f3f2cb1dac92",
}


@pytest.mark.parametrize("name", sorted(HARNESS_SHA256))
def test_harness_report_bytes_unchanged(tmp_path, capsys, name):
    out = tmp_path / "h.json"
    assert main(["harness", "--algebra", name, "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HARNESS_SHA256[name]


# sha256 of `ladder --algebra A --json` at the default seed, prime and step
# budget.  Every rung is built by hom_module, and no other digest covers the
# rung lists.  Update one only in a change that alters the ladder report on
# purpose and says so in CHANGES.md.
LADDER_SHA256 = {
    "t2": "5e9de38bfbf90175cab852fdd02d6e3320a6e3501ebdeac94de878e6546add12",
    "preproj-a2": "c2b76497cb6c36b181a8f1f5d6a57ba19d1783d30444e5bbef9c89612c7baf8b",
    "prop32-dual-numbers": "4c30c409111fb09ebff477d3ec9d9312449df8a8ba8ec41b4ef459613b8ad703",
    # a tensor product, whose generators are built from its factors'
    "morita-square-k": "c2b76497cb6c36b181a8f1f5d6a57ba19d1783d30444e5bbef9c89612c7baf8b",
}


@pytest.mark.parametrize("name", sorted(LADDER_SHA256))
def test_ladder_report_bytes_unchanged(tmp_path, capsys, name):
    out = tmp_path / "l.json"
    assert main(["ladder", "--algebra", name, "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LADDER_SHA256[name]


# sha256 of `stratifying --json` and `recollement --json` for each
# RECOLLEMENT_FIXTURES algebra at the default seed, prime, cutoff and sample
# count.  The multiplication map, the units and the counits behind these
# reports have no other digest outside the verify-paper suite.  Update one only
# in a change that alters the report on purpose and says so in CHANGES.md.
STRATIFYING_SHA256 = {
    "t2": "e86f28690527ec3ba37bf4c14d6fc8aa4163e72cb52e2e7ce1b3f5405d01d019",
    "t3": "3ff36b4a9d4c7f18794a80a05e3762873c13a3df9bf24b915497cc64e6eed472",
    "preproj-a2": "200d7e2777e8d0400733da758eaf39ccf07278040a250aed2a8779f7f070ec3e",
    "prop32-dual-numbers": "53c1e00f2a0b54d828d8ed7c0b998bd5277c4c899296610edd566f1971798dd8",
    "morita-square-k": "200d7e2777e8d0400733da758eaf39ccf07278040a250aed2a8779f7f070ec3e",
    "m2k": "acd1a8dcfe09c95a22b7f92bd71f27e79d0c74705a8d8a81d7964f3f4c023cb4",
    "ideal-chain": "014f39459fabb96e626314fb0bec54779ec807636ea62dcc3b0b9142b216deef",
}

RECOLLEMENT_SHA256 = {
    "t2": "c96812f5107ba833954e09df41d56995dd0b5183e6fb9d0681e81d16e0937e7e",
    "t3": "645139b5347c7f6762b20b1af73070b3cc82ad1a125f5f7399922d59605b7c15",
    "preproj-a2": "a3a24c56e4f0cc30089262ad7ad462918502a52d2d4150df23e20db9e83e41dc",
    "prop32-dual-numbers": "639aa6c1bdd513a149d5155e9beb45352f6c3f525df084309ddf52f3a7977ac5",
    "morita-square-k": "a3a24c56e4f0cc30089262ad7ad462918502a52d2d4150df23e20db9e83e41dc",
    "m2k": "8fb69b6edaa9a25f8608fbd3a9f04047f184e7a2fa497f37cbca3c8763f7e9c5",
    "ideal-chain": "f1c83cbd619032a73a780db6219d13944bdc361ceb3672d20c7c4412d8cf33e7",
}


@pytest.mark.parametrize("command", ["stratifying", "recollement"])
@pytest.mark.parametrize("name", RECOLLEMENT_FIXTURES)
def test_recollement_fixture_report_bytes_unchanged(tmp_path, capsys, command, name):
    digests = {"stratifying": STRATIFYING_SHA256, "recollement": RECOLLEMENT_SHA256}[command]
    out = tmp_path / "r.json"
    assert main([command, "--algebra", name, "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name]


def test_stratifying_command(capsys):
    assert main(["stratifying", "--algebra", "prop32-dual-numbers"]) == 0
    assert "Yes" in capsys.readouterr().out
    assert main(["stratifying", "--algebra", "preproj-a2"]) == 0
    assert "No" in capsys.readouterr().out


def test_gorenstein_command(capsys):
    assert main(["gorenstein", "--algebra", "dual-numbers"]) == 0
    assert "Yes(0)" in capsys.readouterr().out
    assert main(["gorenstein", "--algebra", "t2"]) == 0
    assert "Yes(1)" in capsys.readouterr().out


def test_harness_command(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["harness", "--algebra", "t2", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "PASS"
    assert payload["lemma_checks"]["probes"]["p_exact"]["status"] == "Failed"


def test_harness_command_builds_each_gorenstein_report_once(monkeypatch, capsys):
    import ladderkit.homological as hom

    built = []

    def counted(a, cutoff, _build=hom._gorenstein_report):
        built.append(a)
        return _build(a, cutoff)

    monkeypatch.setattr(hom, "_gorenstein_report", counted)
    assert main(["harness", "--algebra", "t2"]) == 0
    # the middle algebra and the corner, once each; the harness and the
    # lemma checks both read them
    assert len(built) == len({id(a) for a in built}) == 2
    assert sorted(a.dim for a in built) == [1, 3]


def test_unknown_fixture_exits_2(capsys):
    assert main(["ladder", "--algebra", "no-such-thing"]) == 2
    assert "input error" in capsys.readouterr().err


def test_corrupt_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ladder", "--algebra", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_idempotent_exits_2(capsys):
    assert main(["ladder", "--algebra", "dual-numbers"]) == 2
    assert "idempotent" in capsys.readouterr().err


def test_field_restriction_exits_3(capsys):
    # t2 has dimension 3; the trace-form radical needs p > dim
    assert main(["ladder", "--algebra", "t2", "--prime", "3"]) == 3
    assert "field-restriction" in capsys.readouterr().err


def test_json_algebra_spec_quiver(tmp_path, capsys):
    spec = {
        "field": {"prime": 101},
        "kind": "quiver",
        "vertices": 2,
        "arrows": [[0, 1, "a"]],
        "relations": [],
        "path_length_bound": 2,
        "idempotent": "e2",
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(spec))
    assert main(["ladder", "--algebra", str(path)]) == 0
    text = capsys.readouterr().out
    assert "r-height: Exact(4)" in text  # the A2 path algebra is T2 in disguise


def test_json_algebra_spec_ideal_matrix(tmp_path, capsys):
    spec = {
        "kind": "ideal_matrix",
        "base": {"kind": "quiver", "vertices": 1, "arrows": [[0, 0, "x"]], "relations": [["x", "x"]], "path_length_bound": 2},
        "ideal": [[0, 1]],
        "n": 2,
        "idempotent": "e2",
    }
    path = tmp_path / "prop32.json"
    path.write_text(json.dumps(spec))
    assert main(["stratifying", "--algebra", str(path)]) == 0
    assert "Yes" in capsys.readouterr().out


@pytest.mark.parametrize("ideal", [[[1], [1]], [[0]]], ids=["repeated", "zero"])
def test_rank_deficient_ideal_spec_exits_2(tmp_path, capsys, ideal):
    spec = {"kind": "ideal_matrix", "base": "ground", "ideal": ideal, "n": 2, "idempotent": "e2"}
    path = tmp_path / "deficient.json"
    path.write_text(json.dumps(spec))
    assert main(["ladder", "--algebra", str(path)]) == 2
    assert "entry (1,2) basis is rank-deficient" in capsys.readouterr().err


def test_explicit_idempotent_vector(capsys):
    assert main(["ladder", "--algebra", "m2k", "--idempotent", "e1"]) == 0
    capsys.readouterr()


def test_idempotent_as_a_json_coefficient_vector(capsys):
    # t2's basis is E[1,1], E[2,1], E[2,2], so [0,0,1] is e2, the default
    assert main(["ladder", "--algebra", "t2", "--idempotent", "[0, 0, 1]"]) == 0
    by_vector = capsys.readouterr().out
    assert main(["ladder", "--algebra", "t2", "--idempotent", "e2"]) == 0
    assert capsys.readouterr().out == by_vector


@pytest.mark.parametrize(
    "vector, message",
    [
        ("[0,1]", "idempotent vector has 2 coefficients, the algebra has dimension 3"),
        ("[0,0,1.0]", "idempotent vector [0, 0, 1.0] must be a list of integer (or string) coefficients"),
        ("[0,0,true]", "idempotent vector [0, 0, True] must be a list of integer (or string) coefficients"),
        ("[0,0,[1]]", "idempotent vector [0, 0, [1]] must be a list of integer (or string) coefficients"),
        ("[0,0", "bad idempotent vector '[0,0'"),
        ("[1,1,1]", "element is not idempotent"),
    ],
    ids=["short", "float", "bool", "nested", "not-json", "not-idempotent"],
)
def test_bad_idempotent_vector_exits_2(capsys, vector, message):
    assert main(["ladder", "--algebra", "t2", "--idempotent", vector]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


_FLOAT_SPECS = {
    "mult": {"kind": "structure_constants", "mult": [[[1.9]]], "unit": [1], "prim_idempotents": [[1]]},
    "unit": {"kind": "structure_constants", "mult": [[[1]]], "unit": [1.0], "prim_idempotents": [[1]]},
    "prim_idempotents": {"kind": "structure_constants", "mult": [[[1]]], "unit": [1], "prim_idempotents": [[1.5]]},
    "ideal": {"kind": "ideal_matrix", "base": "ground", "ideal": [[0.5]], "n": 2},
    "ideals": {"kind": "ideal_matrix", "base": "ground", "ideals": [[[1]], [[0.5]]], "n": 3},
}


@pytest.mark.parametrize("key", list(_FLOAT_SPECS))
def test_float_coefficients_exit_2(tmp_path, capsys, key):
    # F_p would truncate 1.9 to 1 and accept the ground field
    path = tmp_path / "float.json"
    path.write_text(json.dumps(_FLOAT_SPECS[key]))
    assert main(["gorenstein", "--algebra", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: '{key}' must be ") and "got" in err


def test_integers_beyond_int64_are_reduced_mod_p(tmp_path, capsys):
    # 10^23 = 91 mod 101 breaks the unit axiom; 101 * 10^21 + 1 = 1 is the ground field
    path = tmp_path / "big.json"
    spec = {"kind": "structure_constants", "mult": [[[10**23]]], "unit": [1], "prim_idempotents": [[1]]}
    path.write_text(json.dumps(spec))
    assert main(["gorenstein", "--algebra", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: unit fails unit*b_i = b_i\n"
    spec["mult"] = [[[101 * 10**21 + 1]]]
    path.write_text(json.dumps(spec))
    assert main(["gorenstein", "--algebra", str(path)]) == 0
    assert "Gorenstein: Yes(0)" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_verify_paper_verdicts_stable_across_seeds(tmp_path):
    # verdicts must not depend on the seed; only witnesses may differ.  c4 to
    # c9 read no seed (the pools are deterministic), so their details do not
    # depend on it either, byte for byte
    reports = []
    for seed in (0, 1, 2):
        path = tmp_path / f"s{seed}.json"
        assert main(["verify-paper", "--seed", str(seed), "--json", str(path)]) == 0
        reports.append({c["criterion"]: c for c in json.loads(path.read_text())["criteria"]})
    for r in reports[1:]:
        assert {n: c["status"] for n, c in r.items()} == {n: c["status"] for n, c in reports[0].items()}
        for n in range(4, 10):
            assert json_bytes(r[n]["details"]) == json_bytes(reports[0][n]["details"])


def test_verify_paper_rejects_prime_beyond_bound():
    assert main(["verify-paper", "--prime", "2147483647"]) == EXIT_INPUT == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "triangular", "base": "ground", "n": 32, "idempotent": "e1"},  # dim 528
        {"kind": "quiver", "vertices": 513, "arrows": [], "idempotent": "e1"},  # dim 513
    ],
    ids=["triangular", "quiver"],
)
def test_algebra_beyond_dimension_bound_exits_2(tmp_path, capsys, spec):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(spec))
    assert main(["ladder", "--algebra", str(path)]) == EXIT_INPUT
    assert "exceeds 512" in capsys.readouterr().err


def test_ladder_accepts_recollement_beyond_the_enveloping_bound(tmp_path, capsys):
    # t_7 at e1+...+e6: dim G * dim L = 21 * 28 = 588 > 512, each factor below
    path = tmp_path / "t7.json"
    path.write_text(json.dumps({"kind": "triangular", "base": "ground", "n": 7}))
    assert main(["ladder", "--algebra", str(path), "--idempotent", "e1+e2+e3+e4+e5+e6"]) == 0
    out = capsys.readouterr().out
    assert "r-height: Exact(2)" in out and "l-height: AtLeast(13)" in out


def test_arrow_outside_the_vertices_exits_2(tmp_path, capsys):
    spec = {"kind": "quiver", "vertices": 2, "arrows": [[0, 1, "a"], [0, 5, "b"]], "idempotent": "e2"}
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(spec))
    assert main(["ladder", "--algebra", str(path)]) == EXIT_INPUT
    assert "input error: arrow 'b' joins 0 -> 5, outside the vertices 0..1" in capsys.readouterr().err


_K2 = {"kind": "structure_constants", "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 1], "prim_idempotents": [[1, 0], [0, 1]]}  # k x k


@pytest.mark.parametrize(
    "spec, message",
    [
        ([1, 2], "must be a JSON object, got list"),
        ({"kind": "structure_constants"}, "algebra spec of kind 'structure_constants' lacks the required key 'mult'"),
        ({"field": 7, "kind": "quiver", "vertices": 1, "arrows": []}, "'field' must be a JSON object, got 7"),
        ({"kind": "quiver", "vertices": 2, "arrows": 5}, "'arrows' must be a list of [source, target, name], got 5"),
        ({"kind": "quiver", "vertices": 2, "arrows": [[0, 1]]}, "'arrows' must be a list of [source, target, name], got [[0, 1]]"),
        ({"kind": "triangular", "n": [2]}, "'n' must be an integer, got [2]"),
        (
            {"kind": "quiver", "vertices": 2, "arrows": [[0, 1, "a"], [1, 0, "b"]], "relations": ["ab"]},
            "'relations' must be a list of lists of arrow names, got ['ab']",
        ),
        ({"kind": "quiver", "vertices": "2", "arrows": []}, "'vertices' must be an integer, got '2'"),
        ({"kind": "quiver", "vertices": 1, "arrows": [], "path_length_bound": 2.5}, "'path_length_bound' must be an integer, got 2.5"),
        ({"field": {"prime": 7.9}, "kind": "quiver", "vertices": 1, "arrows": []}, "'prime' must be an integer, got 7.9"),
        ({"field": {"prime": "7"}, "kind": "quiver", "vertices": 1, "arrows": []}, "'prime' must be an integer, got '7'"),
        ({"field": {"rational": "false"}, "kind": "quiver", "vertices": 1, "arrows": []}, "'rational' must be true or false, got 'false'"),
        ({**_K2, "labels": "ab"}, "'labels' must be a list of strings, got 'ab'"),
        ({**_K2, "prim_idempotents": 5}, "'prim_idempotents' must be a list of coefficient vectors, got 5"),
        (
            {"kind": "quiver", "vertices": 2, "arrows": [], "idempotent": {"e": 1}},
            "'idempotent' must be a string like 'e1+e2' or a list of coefficients, got {'e': 1}",
        ),
        ({"kind": "ideal_matrix", "n": 2, "ideals": 5}, "'ideals' must be a list of lists of basis vectors, got 5"),
    ],
    ids=[
        "not-an-object",
        "missing-key",
        "field-not-an-object",
        "arrows-not-a-list",
        "arrow-of-two",
        "n-not-an-integer",
        "relation-a-string",
        "vertices-a-string",
        "bound-a-float",
        "prime-a-float",
        "prime-a-string",
        "rational-a-string",
        "labels-a-string",
        "idempotents-not-a-list",
        "idempotent-an-object",
        "ideals-not-a-list",
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    assert main(["gorenstein", "--algebra", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err

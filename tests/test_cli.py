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
    assert main(["recollement", "--algebra", "t2", "--samples", "5", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "3 middle indecomposables, 1 corner indecomposables, 1 quotient indecomposables: PASS" in text
    payload = json.loads(out.read_text())
    assert payload["status"] == "PASS"
    assert payload["pools"] == {side: {"certified": True, "modules": k} for side, k in (("middle", 3), ("corner", 1), ("quotient", 1))}
    assert payload["failures"] == []


def test_recollement_command_samples_where_not_certified(tmp_path, capsys):
    # over F_5 the trace-form radical of t3 (dim 6) is out of reach, so its
    # pool is 5 seeded draws (the nonzero ones); the corner and the quotient
    # algebra (dims 1 and 3) are still certified
    out = tmp_path / "rec.json"
    assert main(["recollement", "--algebra", "t3", "--prime", "5", "--samples", "5", "--json", str(out)]) == 0
    assert " middle samples, 1 corner indecomposables, 3 quotient indecomposables: PASS" in capsys.readouterr().out
    pools = json.loads(out.read_text())["pools"]
    assert not pools["middle"]["certified"] and 0 < pools["middle"]["modules"] <= 5


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "must be at least 1" in capsys.readouterr().err


# sha256 of `harness --algebra A --json` at the default seed and prime; these
# reports are not covered by the verify-paper digest.  Update one only in a
# change that alters the harness report on purpose and says so in CHANGES.md.
HARNESS_SHA256 = {
    "t2": "3a3de2c2ed1416486927bc5bd3ab2cd7c3d113f34f83136287e3be4d734246a3",
    "prop32-dual-numbers": "29c9f3590742f9caaf21a2661c786f8c4e7ca2e7f819b82bac9f28258ee560f0",
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
    assert main(["harness", "--algebra", "t2", "--samples", "10", "--json", str(out)]) == 0
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_verify_paper_verdicts_stable_across_seeds(tmp_path):
    # verdicts must not depend on the seed; only witnesses may differ.  c5 and
    # c9 run on every indecomposable of the (certified) fixtures, so their
    # details do not depend on it either, byte for byte
    reports = []
    for seed in (0, 1, 2):
        path = tmp_path / f"s{seed}.json"
        assert main(["verify-paper", "--seed", str(seed), "--samples", "3", "--json", str(path)]) == 0
        reports.append({c["criterion"]: c for c in json.loads(path.read_text())["criteria"]})
    for r in reports[1:]:
        assert {n: c["status"] for n, c in r.items()} == {n: c["status"] for n, c in reports[0].items()}
        for n in (5, 9):
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

"""Acceptance suite: runs the verification command end to end, asserts every
criterion at its stated tolerance and prints one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import hashlib
import json

import pytest

from ladderkit.cli import main

CRITERIA_COUNT = 10

# sha256 of the seed-0 `verify-paper --json` report.  Update it only in a change
# that alters report bytes on purpose and says so in CHANGES.md.
SEED0_REPORT_SHA256 = "fc0346cfef2223a282d6959b8195b2ead5edd58e4fb9acbf72ce7be768f47ca4"


@pytest.fixture(scope="module")
def suite_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify")
    first = base / "first.json"
    second = base / "second.json"
    code1 = main(["verify-paper", "--seed", "0", "--json", str(first)])
    code2 = main(["verify-paper", "--seed", "0", "--json", str(second)])
    return code1, code2, first, second


def _criteria(path):
    return {c["criterion"]: c for c in json.loads(path.read_text())["criteria"]}


def test_every_criterion_passes(suite_files):
    code1, _, first, _ = suite_files
    crits = _criteria(first)
    assert len(crits) == CRITERIA_COUNT
    for n in range(1, CRITERIA_COUNT + 1):
        c = crits[n]
        print(f"[{c['status']}] {n:2d}. {c['description']}")
        assert c["status"] == "PASS", f"criterion {n} failed: {c['details']}"
    assert code1 == 0


def test_criterion_1_exact_heights(suite_files):
    c = _criteria(suite_files[2])[1]
    assert c["details"]["l"] == {"kind": "exact", "n": 1, "failing_rung": 0}
    assert c["details"]["r"] == {"kind": "exact", "n": 3, "failing_rung": 2}


def test_criterion_2_exact_period(suite_files):
    c = _criteria(suite_files[2])[2]
    assert c["details"]["r"]["period"] == 3
    assert c["details"]["l"]["period"] == 3
    assert c["details"]["matched_rung_profiles_equal"] is True


def test_criterion_3_frozen_towers(suite_files):
    c = _criteria(suite_files[2])[3]
    for name in ("t2", "t3"):
        d = c["details"][name]
        assert d["frozen_expectation_met"] is True
        assert d["l"]["n"] == 2 and d["r"]["n"] == 4


def test_criterion_4_stratifying(suite_files):
    d = _criteria(suite_files[2])[4]["details"]
    assert d["multiplication_iso"] is True
    assert d["tor_dims"][1:] == [0] * 8


# every indecomposable of each fixture (all are Nakayama): middle, corner and
# quotient module pools, all certified
POOL_SIZES = {
    "t2": (3, 1, 1),
    "t3": (6, 1, 3),
    "preproj-a2": (4, 1, 1),
    "prop32-dual-numbers": (7, 2, 1),
    "morita-square-k": (4, 1, 1),
    "m2k": (1, 1, 0),
    "ideal-chain": (15, 3, 4),
}


def test_criterion_5_axioms_all_fixtures(suite_files):
    d = _criteria(suite_files[2])[5]["details"]
    assert len(d) == 7
    for name, rec in d.items():
        assert rec["failures"] == [], name
        pools = [rec["pools"][side] for side in ("middle", "corner", "quotient")]
        assert all(p["certified"] for p in pools), name
        assert tuple(p["modules"] for p in pools) == POOL_SIZES[name], name


def test_criterion_6_oracle_agreement(suite_files):
    d = _criteria(suite_files[2])[6]["details"]
    assert all(v["status"] == "PASS" for v in d.values())


def test_criterion_7_gorenstein_values(suite_files):
    d = _criteria(suite_files[2])[7]["details"]
    for name in ("dual-numbers", "preproj-a2", "m2k"):
        assert d[name]["gdim"] == 0
    assert d["t2"]["gdim"] <= 1
    assert d["t2"]["spli"]["kind"] == "exact"
    assert d["t2"]["silp"]["kind"] == "exact"


def test_criterion_8_no_failing_clauses(suite_files):
    d = _criteria(suite_files[2])[8]["details"]
    for name, rec in d.items():
        assert rec["status"] == "PASS", name
        assert all(c["status"] in ("PASS", "SKIPPED") for c in rec["clauses"])


# pairs of Gorenstein-projective indecomposables (corner x middle) per
# qualifying fixture; prop32-dual-numbers has l-height 1
GP_PAIRS = {"t2": 2, "t3": 3, "preproj-a2": 4, "morita-square-k": 4, "m2k": 1, "ideal-chain": 10}


def test_criterion_9_stable_pairs(suite_files):
    d = _criteria(suite_files[2])[9]["details"]
    ran = {name: v for name, v in d.items() if v["status"] != "SKIPPED"}
    assert ran.keys() == GP_PAIRS.keys()
    for name, v in ran.items():
        assert v["status"] == "PASS" and v["pairs"] == GP_PAIRS[name], name
        assert v["pools"]["corner"]["certified"] and v["pools"]["middle"]["certified"], name
        assert v["pools"]["corner"]["modules"] * v["pools"]["middle"]["modules"] == v["pairs"], name


def test_criterion_10_determinism_from_cli(suite_files):
    code1, code2, first, second = suite_files
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()


def test_seed0_report_bytes_unchanged(suite_files):
    assert hashlib.sha256(suite_files[2].read_bytes()).hexdigest() == SEED0_REPORT_SHA256

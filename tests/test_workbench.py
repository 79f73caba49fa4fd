import json
from importlib import resources
from random import Random

import pytest

import kripkebench.semantics as S
from kripkebench.checks import (CHECKS, C7_FROZEN, DEFAULT_SEED, ProfileRow,
                                _correspondence_corpus, axiom_profile,
                                report_json, run_check)
from kripkebench.constructions import rect, singleton, tack
from kripkebench.errors import UnknownCheck


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("C99")


def test_c5_record():
    r = run_check("C5")
    assert r.status == "pass"
    assert any("world 0 refutes" in line for line in r.transcript)


def test_c1_small_params_transcript():
    r = run_check("C1", {"max_n": 3, "max_k": 2, "budget": 1 << 20})
    assert r.status == "pass"
    # transcript enumerates every preorder with its verdict grid
    rows = [line for line in r.transcript if "height=" in line]
    assert len(rows) == 1 + 3 + 9


def test_c2_sizes_each_frame_and_formula_once(monkeypatch):
    # the verdict matrix sizes each (frame, formula) cell once, and not
    # again in a pass of its own before the searches
    sized = []
    check_size = S.check_size
    monkeypatch.setattr(S, "check_size", lambda g, f, budget:
                        sized.append((g, f)) or check_size(g, f, budget))
    assert run_check("C2").status == "pass"
    params = CHECKS["C2"].params
    corpus = _correspondence_corpus(params, Random(DEFAULT_SEED))
    assert len(corpus) == 327
    assert len(sized) == len(corpus) * (3 + params["max_m"] + 1)


def test_c6_and_c7():
    assert run_check("C6", {"max_m": 2}).status == "pass"
    r = run_check("C7")
    assert r.status == "pass"
    assert set(C7_FROZEN) == {"tack_both_3", "tack_1_3", "tack_2_3", "rect_3_3"}


def test_c12_reports_the_known_defect():
    r = run_check("C12", {"max_m": 1, "budget": 1 << 22})
    assert r.status == "fail"
    fails = [line for line in r.transcript if "FAIL" in line]
    assert fails and all("dd" in line for line in fails)
    spots = {(line.split()[1], line.split()[2]) for line in fails}
    assert spots == {("axis=1", "kind=2"), ("axis=2", "kind=1")}


def test_meta_records():
    r = run_check("C16")
    assert r.status == "meta-not-verifiable"
    for mid in ("M1", "M4", "M8"):
        rec = run_check(mid)
        assert rec.status == "meta-not-verifiable"
        assert rec.transcript and rec.transcript[0].startswith("meta")


def test_anchors_against_claims_file():
    text = resources.files("kripkebench").joinpath("data/claims.md").read_text("utf-8")
    for cid, definition in CHECKS.items():
        assert definition.anchor in text, cid


def test_report_schema():
    records = [run_check("C5"), run_check("C16")]
    doc = json.loads(report_json(records))
    assert [r["id"] for r in doc] == ["C5", "C16"]
    for r in doc:
        assert set(r) == {"id", "anchor", "status", "params", "transcript"}


def test_axiom_profile_examples():
    rows = axiom_profile(rect(2, 2))
    verdicts = {r.label: r.status for r in rows}
    assert verdicts["bh(1,*)"] == "valid"
    assert verdicts["conv"] == "invalid"
    # refuted by p = one corner: every row-mate sees p but no point boxes it
    assert verdicts["mck(1)"] == "invalid"

    rows = axiom_profile(tack("1", 2))
    verdicts = {r.label: r.status for r in rows}
    assert verdicts["mck(1)"] == "valid"
    assert verdicts["bh(1,2)"] == "valid"
    assert verdicts["bh(1,*)"] == "invalid"

    rows = axiom_profile(singleton())
    assert all(r.status == "valid" for r in rows)
    assert isinstance(rows[0], ProfileRow)


def test_axiom_profile_budget_marks_rows():
    rows = axiom_profile(rect(3, 3), budget=64)
    assert all(r.status == "budget-exceeded" for r in rows if "presym" in r.label)


def test_profile_row_order_is_stable():
    a = [r.label for r in axiom_profile(singleton())]
    b = [r.label for r in axiom_profile(tack("both", 1))]
    assert a == b

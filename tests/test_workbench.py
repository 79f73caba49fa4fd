import json
import re
from importlib import resources
from random import Random

import pytest

import kripkebench.semantics as S
from kripkebench.algebra import (beta_formula, block_system, free_algebra_count,
                                 generated_subalgebra)
from kripkebench.checks import (_META_REASON, CHECKS, C7_FROZEN, DEFAULT_SEED,
                                PROFILE_ROWS, ProfileRow, _correspondence_corpus,
                                _registry, axiom_profile, report_json, run_check)
from kripkebench.constructions import (chain, cluster, rect, singleton, tack, tack_pre,
                                       univ_chain)
from kripkebench.enumeration import all_bimodal_frames, all_preorders, linear_preorders
from kripkebench.errors import FormatError, UnknownCheck
from kripkebench.formulas import parse
from kripkebench.frames import Frame
from kripkebench.morphisms import find_pmorphism, tack_collapse
from kripkebench.semantics import Model, check_size, refutes_witness, valid, valid_each


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


REGISTER = resources.files("kripkebench").joinpath("data/claims.md").read_text("utf-8")


def _register_ids(text: str) -> list[str]:
    return re.findall(r"^- (\w+):", text, re.M)


def test_registry_follows_claims_register():
    lines = re.findall(r"^- (\w+): (.*)$", REGISTER, re.M)
    assert list(CHECKS) == [f"C{i}" for i in range(1, 17)] + [f"M{i}" for i in range(1, 9)]
    assert [(cid, check.anchor) for cid, check in CHECKS.items()] == lines


def test_only_runnable_checks_have_bodies():
    runnable, meta = REGISTER.split("## Runnable checks")[1].split("## Meta records")
    assert _register_ids(runnable) == [cid for cid, c in CHECKS.items() if c.run]
    for cid in _register_ids(meta):
        assert CHECKS[cid].run is None and CHECKS[cid].meta_reason == _META_REASON


C5_LINE = next(line + "\n" for line in REGISTER.splitlines() if line.startswith("- C5:"))


@pytest.mark.parametrize("text, message", [
    (REGISTER.replace("- C2:", "- C1:"), "repeats C1"),
    (REGISTER.replace("- M3:", "- M1:"), "repeats M1"),
    (REGISTER.replace(C5_LINE, ""), "no runnable line for C5"),
    (REGISTER.replace(C5_LINE, "") + C5_LINE, "no runnable line for C5"),
    (REGISTER.replace(C5_LINE, C5_LINE + "- C17: A claim without a body.\n"),
     "runnable C17 has no body"),
], ids=["repeated-check", "repeated-meta", "missing-line", "body-under-meta", "no-body"])
def test_malformed_register_raises(text, message):
    assert text != REGISTER
    with pytest.raises(FormatError, match=message):
        _registry(text)


_TWO = univ_chain(2)
_PHI = parse("[1]p0 -> p0")
_MODEL = Model(_TWO, {0: 0b10})
# (the start of the error, which names the argument, and a call passing the
# value as that argument)
INT_ARGUMENTS = {
    "valid": ("budget must be an int", lambda v: valid(_TWO, _PHI, budget=v)),
    "valid_each": ("budget must be an int",
                   lambda v: valid_each([_TWO], [_PHI], budget=v)),
    "valid_each-no-formula": ("budget must be an int",
                              lambda v: valid_each([_TWO], [], budget=v)),
    "valid_each-no-frame": ("budget must be an int", lambda v: valid_each([], [], budget=v)),
    "check_size": ("budget must be an int", lambda v: check_size(_TWO, _PHI, budget=v)),
    "refutes_witness": ("budget must be an int",
                        lambda v: refutes_witness(_TWO, _PHI, budget=v)),
    "free_algebra_count-budget": ("budget must be an int",
                                  lambda v: free_algebra_count([_TWO], 1, budget=v)),
    "free_algebra_count-cap": ("cap must be an int",
                               lambda v: free_algebra_count([_TWO], 1, cap=v)),
    "free_algebra_count-k": ("k must be a nonnegative int",
                             lambda v: free_algebra_count([_TWO], v)),
    "generated_subalgebra-cap": ("cap must be an int",
                                 lambda v: generated_subalgebra(_TWO, [1], cap=v)),
    "block_system": ("max_layers must be a nonnegative int",
                     lambda v: block_system(_MODEL, v)),
    "beta_formula": ("world must be a nonnegative int", lambda v: beta_formula(_MODEL, v)),
    "find_pmorphism": ("budget must be an int",
                       lambda v: find_pmorphism(_TWO, _TWO, budget=v)),
    "C6": ("budget must be an int", lambda v: run_check("C6", {"max_m": 1, "budget": v})),
    "Model": ("variable index must be a nonnegative int", lambda v: Model(_TWO, {v: 1})),
    "cluster": ("cluster size must be a positive int", cluster),
    "chain": ("chain length must be a positive int", chain),
    "tack_pre": ("cluster size must be a positive int", tack_pre),
    "rect": ("cluster size must be a positive int", lambda v: rect(v, 2)),
    "tack_collapse": ("cluster size must be a positive int",
                      lambda v: tack_collapse("both", v)),
    "tack_collapse-target": ("target size must be a positive int",
                             lambda v: tack_collapse("both", 2, v)),
    "Frame-n": ("world count must be a nonnegative int", lambda v: Frame(v, (), ())),
    "Frame-row": ("r1 row 0 must be an int", lambda v: Frame(1, (v,), (1,))),
    "all_preorders": ("n must be an int", all_preorders),
    "linear_preorders": ("n must be an int", linear_preorders),
    "all_bimodal_frames": ("n must be a positive int", all_bimodal_frames),
}


# None is the default of max_layers and of tack_collapse's target size
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in INT_ARGUMENTS for value in ("9", 1.5, None, True)
    if value is not None or entry not in ("block_system", "tack_collapse-target")])
def test_budgets_and_caps_are_ints(entry, value):
    message, call = INT_ARGUMENTS[entry]
    with pytest.raises(FormatError, match=f"^{message}, got "):
        call(value)


@pytest.mark.parametrize("entry", [e for e, (message, _) in INT_ARGUMENTS.items()
                                   if "nonnegative" in message or "positive" in message])
def test_int_arguments_below_their_bound(entry):
    # an int too large to write in decimal fails as a small one does
    message, call = INT_ARGUMENTS[entry]
    for value in [-1, -10 ** 5000] + [0] * ("positive" in message):
        with pytest.raises(FormatError, match=f"^{message}, got "):
            call(value)


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


def test_profile_labels_are_pinned():
    # the labels derived from each row's name and arguments, in row order
    assert [label for label, _ in PROFILE_ROWS] == [
        "bh(1,1)", "bh(1,2)", "bh(1,v)", "bh(1,*)", "bh(2,*)", "rp(1,v)",
        "rp(2,v)", "com", "chr", "presym(1)", "presym(2)", "presym", "conv",
        "dd", "mck(1)", "mck(2)", "mck(*)", "dot3(1)", "dot3(2)", "sym2",
        "match2_ax", "match12_ax", "cas", "u_incl", "triv_ax(1)",
        "triv_ax(2)", "s4_ax(1)", "s4_ax(2)", "s5_ax(1)", "s5_ax(2)"]
    assert [r.label for r in axiom_profile(singleton())] == \
        [label for label, _ in PROFILE_ROWS]

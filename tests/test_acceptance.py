"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting its stated tolerance and time bound.

Criterion 4 is expected to fail on one sub-item: the downward-directedness
rows of the match-frame axiom list have a genuine two-world countermodel on
the kind-2 frames (see the claims register); the test asserts the criterion
as stated and is marked strict xfail, and a companion test pins the
attainable remainder green.

Criterion 7's companions pin the report whatever ran before it in the
process: every cache cleared before each check, the checks in reverse
order, and histories of library calls on frames equal to the registry's.
"""

import hashlib
import importlib
import pkgutil
import time
from itertools import product as iproduct
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

import kripkebench

from kripkebench.algebra import (beta_formula, block_system,
                                 free_algebra_count, generated_subalgebra,
                                 naive_free_algebra_count)
from kripkebench.checks import (CHECKS, PROFILE_ROWS, beta_corpus,
                                match_suite_rows, report_json, run_all,
                                run_check)
from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       match_frame, product, rect, singleton,
                                       tack, univ_chain)
from kripkebench.enumeration import all_preorders, random_frame, random_valuation
from kripkebench.errors import KripkebenchError
from kripkebench.formulas import named_formula
from kripkebench.frames import Frame, FrameSpec, GeneralFrame, UniFrame, pull_rows
from kripkebench.morphisms import check_pmorphism, find_pmorphism
from kripkebench.semantics import (Model, eval_formula, refutes_witness, valid,
                                   valid_each)

from oracle import atoms_of


def _report(number: int, name: str, ok: bool, elapsed: float, bound: float):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s / {bound:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.1f}s)"


def test_criterion_1_correspondence_suite():
    t0 = time.monotonic()
    records = [run_check(cid) for cid in ("C1", "C2", "C3", "C9")]
    ok = all(r.status == "pass" for r in records)
    _report(1, "correspondence suite C1-C3, C9", ok, time.monotonic() - t0, 60)


def test_criterion_2_presymmetry():
    t0 = time.monotonic()
    records = [run_check(cid) for cid in ("C4", "C5")]
    ok = all(r.status == "pass" for r in records)
    _report(2, "presymmetry C4, C5", ok, time.monotonic() - t0, 30)


def test_criterion_3_tack_suite():
    t0 = time.monotonic()
    records = [run_check(cid) for cid in ("C6", "C7")]
    ok = all(r.status == "pass" for r in records)
    _report(3, "tack suite C6, C7", ok, time.monotonic() - t0, 60)


@pytest.mark.xfail(
    strict=True,
    reason="dd is refuted on the match frames whose top hangs on the cluster "
           "modality alone (axis 1 kind 2, and its modality swap): the "
           "one-cell case is a two-world countermodel (p at the top, q at "
           "the bottom), so the axiom list of C12 cannot be fully valid; "
           "see the claims register.")
def test_criterion_4_match_universal_tense_as_stated():
    t0 = time.monotonic()
    records = [run_check(cid) for cid in ("C10", "C11", "C12")]
    ok = all(r.status == "pass" for r in records)
    _report(4, "match/universal/tense C10-C12", ok, time.monotonic() - t0, 60)


def test_criterion_4_attainable_remainder():
    t0 = time.monotonic()
    ok = run_check("C10").status == "pass" and run_check("C11").status == "pass"
    for axis, kind, name, f in match_suite_rows():
        if "dd" in name and (axis, kind) in ((1, "2"), (2, "1")):
            continue  # the documented defect
        for m in range(1, 5):
            F = match_frame(axis, kind, m)
            if not valid(F, f, budget=1 << 23):
                ok = False
    _report(4, "match/universal/tense minus the documented dd rows",
            ok, time.monotonic() - t0, 60)


def test_criterion_5_algebra_suite():
    t0 = time.monotonic()
    ok = free_algebra_count([singleton()], 1) == 4
    ok = ok and free_algebra_count([singleton()], 0) == 2
    ok = ok and naive_free_algebra_count([singleton()], 1) == 4
    ok = ok and naive_free_algebra_count([singleton()], 0) == 2

    rng = Random(1729)
    for _ in range(50):
        n = rng.randint(1, 5)
        F = random_frame(rng, n)
        val = random_valuation(rng, n, rng.randint(0, 2))
        stabilized = block_system(Model(F, val)).stabilized
        alg = generated_subalgebra(F, list(val.values()))
        if set(stabilized) != set(atoms_of(alg)):
            ok = False

    for name, model, r in beta_corpus():
        cert = beta_formula(model, r)
        if eval_formula(model, cert.beta) != 1 << r:
            ok = False
    _report(5, "algebra suite", ok, time.monotonic() - t0, 120)


def _finder_pairs():
    rng = Random(271828)
    pairs = [
        (rect(2, 2), rect(2, 2)),
        (rect(2, 2), singleton()),
        (lintgrz(3), lintgrz(2)),
        (lintgrz(4), lintgrz(2)),
        (lift(chain(3)), lift(chain(2))),
        (lift(chain(4)), lift(chain(2))),
        (lift(cluster(3)), lift(cluster(2))),
        (tack("both", 2), tack("both", 1)),
        (tack("1", 2), tack("1", 1)),
        (tack("2", 2), tack("2", 1)),
        (product(chain(2), chain(2)), lift(chain(2))),
        (product(tack_pre_small(), tack_pre_small()), tack("both", 1)),
        (lift(chain(2)), Frame(2, (0b11, 0b11), (0b01, 0b10))),
        (singleton(), lift(chain(2))),
        (lintgrz(2), lift(chain(2))),
    ]
    while len(pairs) < 45:
        ns = rng.randint(1, 4)
        nt = rng.randint(1, 4)
        if nt ** ns > 1 << 16:
            continue
        pairs.append((random_frame(rng, ns), random_frame(rng, nt)))
    return [(g, h) for g, h in pairs
            if (h.n if isinstance(h, Frame) else h.frame.n) ** g.n <= 1 << 16]


def tack_pre_small():
    from kripkebench.constructions import tack_pre
    return tack_pre(1)


def test_criterion_6_finder_soundness_completeness():
    t0 = time.monotonic()
    ok = True
    for g, h in _finder_pairs():
        found = find_pmorphism(g, h, budget=1 << 17)
        first = None
        for cand in iproduct(range(h.n), repeat=g.n):
            if check_pmorphism(g, h, cand) is None:
                first = cand
                break
        if found != first:
            ok = False
        if found is not None and check_pmorphism(g, h, found) is not None:
            ok = False
    _report(6, "p-morphism finder vs exhaustive oracle", ok,
            time.monotonic() - t0, 120)


# sha256 of the 75,892-byte `kripkebench check --all --json` report
REPORT_SHA256 = "1f96bd5333fa311f7db89be91708df7b08c0a023ae49a412fc61717805d33b46"


def test_criterion_7_determinism():
    t0 = time.monotonic()
    first = report_json(run_all())
    second = report_json(run_all())
    ok = (first == second and len(first) == 75892
          and hashlib.sha256(first).hexdigest() == REPORT_SHA256)
    _report(7, "deterministic check reports", ok, time.monotonic() - t0, 600)


# --- criterion 7, whatever ran before ---------------------------------------

CACHES = {"_all_sets", "_preimage_table", "_plan", "_reachability", "_definers",
          "_poset_group", "_posets"}


def _caches() -> dict:
    """Each lru_cache of the package, by name, with the module that defines
    it: a scan of every module for ``cache_clear``, skipping the names a
    module binds from another (``checks`` imports its helpers by name)."""
    found = {}
    for info in pkgutil.iter_modules(kripkebench.__path__):
        module = importlib.import_module(f"kripkebench.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found[name] = (module, value)
    return found


def _holds_frame(value) -> bool:
    if isinstance(value, (Frame, GeneralFrame, UniFrame)):
        return True
    if isinstance(value, dict):
        value = list(value.items())
    elif hasattr(value, "__dict__"):  # a plan, with the fields it has built
        value = list(vars(value).values())
    return isinstance(value, (tuple, list)) and any(map(_holds_frame, value))


def test_caches_are_known_and_return_no_frame(monkeypatch):
    # Frame equality ignores spec, so a cached frame could carry another
    # frame's spec into a report
    caches = _caches()
    assert set(caches) == CACHES
    assert len({id(cache) for _, cache in caches.values()}) == len(CACHES)
    returned = []

    def spy(name, cache):
        def call(*args):
            result = cache(*args)
            returned.append((name, result))
            return result
        return call

    for name, (module, cache) in caches.items():
        monkeypatch.setattr(module, name, spy(name, cache))
    run_all()
    assert {name for name, _ in returned} == CACHES
    assert not [name for name, value in returned if _holds_frame(value)]


def _clear_caches() -> None:
    for _, cache in _caches().values():
        cache.cache_clear()


def _pinned(records) -> bool:
    return hashlib.sha256(report_json(records)).hexdigest() == REPORT_SHA256


def test_report_with_cold_caches_and_in_reverse_order():
    cold = []
    for cid in CHECKS:
        _clear_caches()
        cold.append(run_check(cid))
    assert _pinned(cold)
    run_all()
    assert _pinned([run_check(cid) for cid in reversed(CHECKS)][::-1])


# frames equal to ones the registry builds; a history gives them other
# specs, relabels them or swaps their relations (which keeps the union)
HISTORY_FRAMES = [model.kripke for _, model, _ in beta_corpus()] + [
    rect(3, 3), tack("1", 3), tack("2", 3), univ_chain(4), lintgrz(4),
    match_frame(1, "2", 3), match_frame(2, "both", 2),
    product(chain(2), cluster(2)), product(chain(3), chain(2))]


@st.composite
def _variants(draw, frame: Frame) -> Frame:
    how = draw(st.sampled_from(("spec", "relabel", "swap")))
    if how == "relabel":
        perm = draw(st.permutations(range(frame.n)))
        return Frame(frame.n, pull_rows(frame.r1, perm), pull_rows(frame.r2, perm))
    r1, r2 = (frame.r1, frame.r2) if how == "spec" else (frame.r2, frame.r1)
    return Frame(frame.n, r1, r2, spec=FrameSpec("history", (how,)))


def _beta_call(data) -> None:
    # a model of the definability corpus, with another valuation
    _, model, _ = data.draw(st.sampled_from(beta_corpus()))
    g = data.draw(_variants(model.kripke))
    masks = data.draw(st.lists(st.integers(1, g.full), min_size=1, max_size=2))
    beta_formula(Model(g, dict(enumerate(masks))), data.draw(st.integers(0, g.n - 1)))


def _search_call(data) -> None:
    g = data.draw(_variants(data.draw(st.sampled_from(HISTORY_FRAMES))))
    _, (name, args) = data.draw(st.sampled_from(PROFILE_ROWS))
    f = named_formula(name, list(args))
    search = data.draw(st.sampled_from((valid, refutes_witness, "each", "free")))
    if search == "each":
        valid_each([g, data.draw(st.sampled_from(HISTORY_FRAMES))], [f], 1 << 20)
    elif search == "free":
        free_algebra_count([g], 1, budget=1 << 12)
    else:
        search(g, f, 1 << 20)


@settings(max_examples=4, derandomize=True, deadline=None, database=None,
          phases=[Phase.generate])
@given(st.data())
def test_report_after_a_history_of_library_calls(data):
    _clear_caches()  # the history is all that ran before, whatever the test order
    for _ in range(data.draw(st.integers(4, 10))):
        call = data.draw(st.sampled_from(
            (_beta_call, _search_call, lambda data: all_preorders(
                data.draw(st.integers(1, 4))))))
        try:
            call(data)
        except KripkebenchError:  # an undefinable world, a budget exceeded, ...
            pass
    assert _pinned(run_all())

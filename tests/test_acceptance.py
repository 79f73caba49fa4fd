"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting its stated tolerance and time bound.

Criterion 4 is expected to fail on one sub-item: the downward-directedness
rows of the match-frame axiom list have a genuine two-world countermodel on
the kind-2 frames (see the claims register); the test asserts the criterion
as stated and is marked strict xfail, and a companion test pins the
attainable remainder green.
"""

import hashlib
import time
from itertools import product as iproduct
from random import Random

import pytest

from kripkebench.algebra import (beta_formula, block_system,
                                 free_algebra_count, generated_subalgebra,
                                 naive_free_algebra_count)
from kripkebench.checks import (beta_corpus, match_suite_rows, report_json,
                                run_all, run_check)
from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       match_frame, product, rect, singleton,
                                       tack)
from kripkebench.enumeration import random_frame, random_valuation
from kripkebench.frames import Frame
from kripkebench.morphisms import check_pmorphism, find_pmorphism
from kripkebench.semantics import Model, eval_formula, valid

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

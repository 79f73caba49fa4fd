"""The check registry, the axiom profiler, and the report machinery.

Each check record carries the mathematical claim it exercises (``anchor``),
the parameters it ran with, a pass/fail/meta status, and a transcript from
which the verdict can be re-derived.  Reports are deterministic: fixed
default seed, sorted iteration orders, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import constructions as C
from .algebra import beta_formula, free_algebra_count, generated_subalgebra
from .enumeration import (all_bimodal_frames, all_preorders, linear_preorders,
                          random_frame, random_preorder, random_valuation)
from .errors import BudgetExceeded, UnknownCheck
from .formulas import (Formula, Imp, P, dia_v, named_formula, print_formula,
                       swap_modalities)
from .frames import (Frame, GeneralFrame, analyze, bitstring, frame_property,
                     restriction, rt_closure, store_frame, transpose_rows)
from .morphisms import check_pmorphism, tack_collapse
from .semantics import Model, eval_formula, valid, valid_each

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckRecord:
    id: str
    anchor: str
    description: str
    params: dict
    status: str                  # "pass" | "fail" | "meta-not-verifiable"
    transcript: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "params": self.params,
            "transcript": list(self.transcript),
        }


@dataclass(frozen=True)
class CheckDef:
    anchor: str
    description: str
    params: dict = field(default_factory=dict)
    run: Callable[[dict, Random, list[str]], bool] | None = None
    meta_reason: str | None = None


def _frame_label(f: Frame) -> str:
    if f.spec is not None:
        inner = ",".join(str(p) for p in f.spec.params)
        return f"{f.spec.name}({inner})"
    return store_frame(f).decode()


def _fmt(flag: bool) -> str:
    return "valid" if flag else "refuted"


# --- check bodies ---------------------------------------------------------

def _c1(params, rng, out):
    ok = True
    pres = [all_preorders(n) for n in range(1, params["max_n"] + 1)]
    lifted = [C.lift(u) for us in pres for u in us]
    bh = [named_formula("bh", [k, 1]) for k in range(params["max_k"] + 1)]
    rows_of = iter(zip(lifted, valid_each(lifted, bh, params["budget"])))
    for n, frames in enumerate(pres, 1):
        out.append(f"n={n}: {len(frames)} preorders up to isomorphism")
        for idx, u in enumerate(frames):
            F, row = next(rows_of)
            h = analyze(F).height
            verdicts = []
            for k, v in enumerate(row):
                if v != (h <= k):
                    ok = False
                    out.append(f"  MISMATCH n={n} #{idx} k={k}")
                verdicts.append("1" if v else "0")
            rows = ",".join(bitstring(r, n) for r in u.rows)
            out.append(f"  #{idx} rows=[{rows}] height={h} bh[0..{params['max_k']}]="
                       f"{''.join(verdicts)}")
    return ok


def _correspondence_corpus(params, rng):
    frames = list(all_bimodal_frames(1)) + list(all_bimodal_frames(2))
    for n, count in ((3, params["sample_3"]), (4, params["sample_4"])):
        for _ in range(count):
            frames.append(random_frame(rng, n))
    frames += [
        C.product(C.chain(2), C.chain(2)),
        C.product(C.cluster(2), C.cluster(2)),
        C.rect(2, 2),
        C.tack("both", 2), C.tack("1", 2), C.tack("2", 2),
        C.lift(C.chain(3)), C.lift(C.chain(4)), C.lift(C.cluster(3)),
        C.lintgrz(3), C.lintgrz(4), C.univ_chain(3), C.univ_chain(4),
        C.match_frame(1, "1", 2), C.match_frame(1, "2", 2),
        C.match_frame(1, "both", 2), C.match_frame(2, "both", 2),
    ]
    return frames


def _c2(params, rng, out):
    frames = _correspondence_corpus(params, rng)
    out.append(f"corpus: {len(frames)} frames (exhaustive n<=2 up to iso, "
               f"{params['sample_3']}+{params['sample_4']} seeded samples at n=3,4, "
               "structured families)")
    pairs = [("com", named_formula("com"), lambda F: frame_property(F, "com")),
             ("cr", named_formula("chr"), lambda F: frame_property(F, "cr")),
             ("tense", named_formula("conv"), lambda F: frame_property(F, "tense"))]
    for m in range(params["max_m"] + 1):
        pairs.append((f"rp({m})", named_formula("rp", [m, "v"]),
                      lambda F, m=m: frame_property(F, "rp", (m,))))
    mismatches = 0
    rows = valid_each(frames, [p[1] for p in pairs], params["budget"])
    for i, (F, row) in enumerate(zip(frames, rows)):
        bits = []
        for (name, _, prop), sem in zip(pairs, row):
            fo = prop(F)
            if sem != fo:
                mismatches += 1
                out.append(f"  MISMATCH frame #{i} {name}: semantic={sem} first-order={fo}")
            bits.append("1" if sem else "0")
        out.append(f"  #{i} n={F.n} {_frame_label(F)} "
                   f"[{','.join(p[0] for p in pairs)}]={''.join(bits)}")
    out.append(f"mismatches: {mismatches}")
    return mismatches == 0


def _preorder_pairs(rng, max_n, count):
    pairs = [(a, b) for a in all_preorders(1) + all_preorders(2)
             for b in all_preorders(1) + all_preorders(2)]
    for _ in range(count):
        pairs.append((random_preorder(rng, rng.randint(1, max_n)),
                      random_preorder(rng, rng.randint(1, max_n))))
    return pairs


def _c3(params, rng, out):
    ok = True
    pairs = _preorder_pairs(rng, params["max_n"], params["samples"])
    out.append(f"{len(pairs)} preorder pairs (exhaustive <=2, seeded <= {params['max_n']})")
    products = [C.product(a, b) for a, b in pairs]
    rows = valid_each(products, [named_formula("com"), named_formula("chr")],
                      params["budget"])
    for i, ((a, b), F, (com_v, chr_v)) in enumerate(zip(pairs, products, rows)):
        com_p = frame_property(F, "com")
        cr_p = frame_property(F, "cr")
        if not (com_p and cr_p and com_v and chr_v):
            ok = False
            out.append(f"  FAIL pair #{i} ({a.n}x{b.n}): com_fo={com_p} cr_fo={cr_p} "
                       f"com={_fmt(com_v)} chr={_fmt(chr_v)}")
        else:
            out.append(f"  #{i} {a.n}x{b.n}: commutation and confluence hold, "
                       "axioms valid")
    return ok


def _failing_products(params, formula: Formula) -> tuple[int, list]:
    """The number of preorders with at most ``max_n`` worlds, and each
    (i, a, j, b) such that ``formula`` is not valid on the product of the
    i-th preorder ``a`` with the j-th preorder ``b``."""
    pres = [p for n in range(1, params["max_n"] + 1) for p in all_preorders(n)]
    pairs = [(i, a, j, b) for i, a in enumerate(pres) for j, b in enumerate(pres)]
    rows = valid_each([C.product(a, b) for _, a, _, b in pairs], [formula],
                      params["budget"])
    return len(pres), [pair for pair, (v,) in zip(pairs, rows) if not v]


def _c4(params, rng, out):
    count, failures = _failing_products(params, named_formula("presym"))
    out.append(f"{count}^2 = {count**2} products of preorders with "
               f"<= {params['max_n']} worlds each")
    out.extend(f"  FAIL product #{i},#{j} ({a.n}x{b.n})" for i, a, j, b in failures)
    out.append("failures above" if failures else "presymmetry valid on every product")
    return not failures


def _c5(params, rng, out):
    F = C.univ_chain(2)
    presym1 = named_formula("presym", [1])
    v = valid(F, presym1, budget=params["budget"])
    out.append(f"presym_1 on (2,<=,univ): {_fmt(v)}")
    model = Model(F, {0: 0b01, 1: 0b11})
    ext = eval_formula(model, presym1)
    witness_ok = not (ext >> 0 & 1)
    out.append(f"designated witness p={{0}}, q={{0,1}}: extension {bitstring(ext, 2)}; "
               f"world 0 {'refutes' if witness_ok else 'does not refute'}")
    from .semantics import refutes_witness
    w = refutes_witness(F, presym1, budget=params["budget"])
    found_ok = w is not None
    if found_ok:
        check_model = Model(F, w.as_dict())
        found_ok = not (eval_formula(check_model, presym1) >> w.world & 1)
        val = {f"p{v_}": bitstring(mask, 2) for v_, mask in w.valuation}
        out.append(f"search witness {val} at world {w.world}: verified falsifying")
    return (not v) and witness_ok and found_ok


def _c6(params, rng, out):
    ok = True
    for m in range(1, params["max_m"] + 1):
        for kind in ("both", "1", "2"):
            src, tgt, f = tack_collapse(kind, m)
            need = 2 * src.n ** 2  # world pairs the forth and back clauses visit
            if need > params["budget"]:
                raise BudgetExceeded(need, params["budget"], "world pairs")
            violation = check_pmorphism(src, tgt, f)
            if violation is None:
                out.append(f"m={m} kind={kind}: {src.n}-world product collapses onto "
                           f"{_frame_label(tgt)} via {list(f)}")
            else:
                ok = False
                out.append(f"  FAIL m={m} kind={kind}: {violation}")
    return ok


# engine-produced once, then frozen; a later mismatch is a regression signal
C7_FROZEN = {
    "tack_both_3": (False, True, True, False, False),
    "tack_1_3": (False, True, False, False, True),
    "tack_2_3": (False, False, True, True, False),
    "rect_3_3": (True, False, False, True, True),
}
C7_FORMULAS = ("bh(1,*)", "mck(1)", "mck(2)", "bh(1,1)", "bh(1,2)")


def _c7(params, rng, out):
    frames = [("tack_both_3", C.tack("both", 3)), ("tack_1_3", C.tack("1", 3)),
              ("tack_2_3", C.tack("2", 3)), ("rect_3_3", C.rect(3, 3))]
    formulas = [named_formula("bh", [1, "*"]), named_formula("mck", [1]),
                named_formula("mck", [2]), named_formula("bh", [1, 1]),
                named_formula("bh", [1, 2])]
    matrix = {}
    for name, F in frames:
        row = tuple(valid(F, f, budget=params["budget"]) for f in formulas)
        matrix[name] = row
        out.append(f"{name}: " + " ".join(
            f"{fn}={_fmt(v)}" for fn, v in zip(C7_FORMULAS, row)))
    ok = matrix == C7_FROZEN
    out.append("matrix matches frozen golden" if ok else "MATRIX DRIFTED from frozen golden")
    bh_star_frames = [n for n, row in matrix.items() if row[0]]
    both_mck = [n for n, row in matrix.items() if row[1] and row[2]]
    ok = ok and bh_star_frames == ["rect_3_3"] and both_mck == ["tack_both_3"]
    out.append(f"unique bh(1,*) validator: {bh_star_frames}; "
               f"unique frame validating both one-sided mck: {both_mck}")
    return ok


def _c8(params, rng, out):
    count, failures = _failing_products(params, named_formula("cas"))
    out.extend(f"  FAIL product #{i},#{j}" for i, _, j, _ in failures)
    out.append("failures above" if failures else f"cas valid on all {count**2} "
               f"products of preorders with <= {params['max_n']} worlds")
    return not failures


def _c9(params, rng, out):
    ok = True
    axioms = [named_formula(name) for name in ("com", "chr", "conv")]
    frames = [Frame(n, u.rows, transpose_rows(u.rows, n))
              for n in range(1, params["max_n"] + 1) for u in linear_preorders(n)]
    for F, row in zip(frames, valid_each(frames, axioms, params["budget"])):
        n, union = F.n, F.union()
        com_p = frame_property(F, "com")
        cr_p = frame_property(F, "cr")
        tense_p = frame_property(F, "tense")
        sem = all(row)
        closed = rt_closure(union, n) == union
        line = (f"n={n} rows=[{','.join(bitstring(r, n) for r in F.r1)}]: "
                f"com={com_p} cr={cr_p} tense={tense_p} axioms={sem} "
                f"union-already-closed={closed}")
        if not (com_p and cr_p and tense_p and sem and closed):
            ok = False
            line = "  FAIL " + line
        out.append(line)
    return ok


def _c10(params, rng, out):
    ok = True
    for n in range(1, params["max_n"] + 1):
        F = C.lintgrz(n)
        facts = {
            "tense": frame_property(F, "tense"),
            "poset1": frame_property(F, "poset", (1,)),
            "poset2": frame_property(F, "poset", (2,)),
            "linear1": frame_property(F, "linear", (1,)),
            "linear2": frame_property(F, "linear", (2,)),
            "conv": valid(F, named_formula("conv"), budget=params["budget"]),
            "union-closed": rt_closure(F.union(), n) == F.union(),
        }
        if not all(facts.values()):
            ok = False
        out.append(f"(n={n},<=,>=): " + " ".join(f"{k}={v}" for k, v in facts.items()))
    return ok


def _c11(params, rng, out):
    ok = True
    axioms = {"dd": named_formula("dd"), "u_incl": named_formula("u_incl"),
              "s5(2)": named_formula("s5_ax", [2])}
    for m in range(1, params["max_m"] + 1):
        F = C.univ_chain(m)
        verdicts = {k: valid(F, f, budget=params["budget"]) for k, f in axioms.items()}
        if not all(verdicts.values()):
            ok = False
        out.append(f"(m={m},<=,univ): " + " ".join(
            f"{k}={_fmt(v)}" for k, v in verdicts.items()))
    return ok


_SWAP_KIND = {"1": "2", "2": "1", "both": "both"}


def match_suite_rows() -> list[tuple[int, str, str, Formula]]:
    """(axis, kind, name, formula) for all six match-frame families.  An
    axis-2 family is the modality swap of the axis-1 family with the sum
    kind exchanged (the cross block changes relation when the modalities
    swap), so its list is the swap of the exchanged kind's axis-1 list."""
    common = [
        ("dd", named_formula("dd")),
        ("presym(2)", named_formula("presym", [2])),
        ("trans(v)", Imp(dia_v(dia_v(P)), dia_v(P))),
        ("bh(2,*)", named_formula("bh", [2, "*"])),
        ("mck(*)", named_formula("mck", ["*"])),
    ]
    per_kind = {
        "1": [("sym2", named_formula("sym2"))],
        "2": [("match2_ax", named_formula("match2_ax"))],
        "both": [("mck(2)", named_formula("mck", [2])),
                 ("match12_ax", named_formula("match12_ax"))],
    }
    rows = []
    for kind in ("1", "2", "both"):
        for name, f in common + per_kind[kind]:
            rows.append((1, kind, name, f))
    for kind in ("1", "2", "both"):
        for name, f in common + per_kind[_SWAP_KIND[kind]]:
            rows.append((2, kind, f"swap({name})", swap_modalities(f)))
    return rows


def _c12(params, rng, out):
    ok = True
    for axis, kind, name, f in match_suite_rows():
        for m in range(1, params["max_m"] + 1):
            F = C.match_frame(axis, kind, m)
            if not valid(F, f, budget=params["budget"]):
                ok = False
                from .semantics import refutes_witness
                w = refutes_witness(F, f, budget=params["budget"])
                val = {f"p{i}": bitstring(mask, F.n) for i, mask in w.valuation}
                out.append(f"  FAIL axis={axis} kind={kind} m={m} {name}: "
                           f"refuted by {val} at world {w.world}")
    out.append("every listed axiom valid on its match frames" if ok else
               "failures above (the dd rows on the frames whose top hangs on "
               "the cluster modality alone have a genuine two-world "
               "countermodel; see the claims register)")
    return ok


def _c13(params, rng, out):
    ok = True
    for m in range(1, params["max_m"] + 1):
        F = C.lift(C.chain(m))
        valuations = [{}] + [random_valuation(rng, m, rng.randint(1, 2))
                             for _ in range(3)]
        for vi, val in enumerate(valuations):
            alg = generated_subalgebra(F, list(val.values()))
            G = GeneralFrame(F, alg.elements)
            sizes = []
            for a in range(m):
                R = restriction(G, 1 << a)
                sizes.append(len(R.algebra))
            if any(s != 2 for s in sizes):
                ok = False
                out.append(f"  FAIL chain({m}) valuation #{vi}: restriction "
                           f"algebra sizes {sizes}")
            else:
                out.append(f"chain({m}) valuation #{vi}: every singleton-cluster "
                           "restriction algebra has exactly 2 elements")
    return ok


def beta_corpus() -> list[tuple[str, Model, int]]:
    """Ten models with a definable target point each."""
    return [
        ("chain2/p0={1}/r=0", Model(C.lift(C.chain(2)), {0: 0b10}), 0),
        ("chain2/p0={1}/r=1", Model(C.lift(C.chain(2)), {0: 0b10}), 1),
        ("chain3/p0={1},p1={2}/r=0",
         Model(C.lift(C.chain(3)), {0: 0b010, 1: 0b100}), 0),
        ("rect22/p0={0}/r=0", Model(C.rect(2, 2), {0: 0b0001}), 0),
        ("rect22/p0={0}/r=3", Model(C.rect(2, 2), {0: 0b0001}), 3),
        ("tack-both-2/p0={0}/r=4", Model(C.tack("both", 2), {0: 0b00001}), 4),
        ("tack-1-2/p0={1}/r=2", Model(C.tack("1", 2), {0: 0b00010}), 2),
        ("univchain3/p0={0},p1={1}/r=0",
         Model(C.univ_chain(3), {0: 0b001, 1: 0b010}), 0),
        ("lintgrz3/p0={0},p1={1}/r=2",
         Model(C.lintgrz(3), {0: 0b001, 1: 0b010}), 2),
        ("cluster3/p0={0},p1={1}/r=2",
         Model(C.lift(C.cluster(3)), {0: 0b001, 1: 0b010}), 2),
    ]


def _c14(params, rng, out):
    ok = True
    for name, model, r in beta_corpus():
        try:
            cert = beta_formula(model, r)
        except Exception as e:  # transcript the failure, do not crash the run
            ok = False
            out.append(f"  FAIL {name}: {type(e).__name__}: {e}")
            continue
        ext = eval_formula(model, cert.beta)
        exact = ext == 1 << r
        if not exact:
            ok = False
        out.append(f"{name}: extension {bitstring(ext, model.kripke.n)} "
                   f"depth={cert.depth} {'exact' if exact else 'NOT exact'}")
    return ok


def _c15(params, rng, out):
    counts = []
    for m in range(1, params["max_m"] + 1):
        c = free_algebra_count([C.tack("both", m)], 1, cap=params["cap"],
                               budget=params["budget"])
        counts.append(c)
        out.append(f"tack(both,{m}), one variable: {c} inequivalent formulas")
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    out.append("exploratory: counts grow strictly with the cluster size"
               if increasing else "counts not strictly increasing")
    return increasing


def _c16(params, rng, out):
    out.append("meta record: one reading of the product definition's displayed "
               "first-relation clause would tie (a,b)R1(c,d) to aRb; the "
               "implemented relation is the standard one, (a,b)R1(c,d) iff "
               "aRc and b=d, which is the reading consistent with commutation "
               "and confluence on products (check C3).")
    return True


_META_REASON = "requires infinite frames or non-finitary arguments; no executable content"

CHECKS: dict[str, CheckDef] = {
    "C1": CheckDef(
        "A preorder validates the height axiom bh_n exactly when its height is at most n.",
        "Exhaustive preorders up to isomorphism, lifted to bimodal frames; "
        "semantic validity of bh(k,1) compared with the skeleton height.",
        {"max_n": 5, "max_k": 4, "budget": 1 << 24}, _c1),
    "C2": CheckDef(
        "The chain-collapse axiom rp_m over the joint diamond, the commutation "
        "axiom, the confluence axiom, and the converse axioms are valid exactly "
        "on frames satisfying their first-order conditions.",
        "Correspondence suite over a corpus: exhaustive bimodal frames n <= 2 "
        "up to isomorphism, seeded samples at n = 3 and 4, structured families.",
        {"max_m": 2, "sample_3": 120, "sample_4": 50, "budget": 1 << 23}, _c2),
    "C3": CheckDef(
        "Products of preorders satisfy commutation and confluence, first-order "
        "and semantically.",
        "Exhaustive preorder pairs with <= 2 worlds plus seeded pairs <= 4 worlds.",
        {"max_n": 4, "samples": 30, "budget": 1 << 22}, _c3),
    "C4": CheckDef(
        "The presymmetry axiom is valid on every product of two preorders.",
        "All pairs of preorders with <= 3 worlds each, up to isomorphism.",
        {"max_n": 3, "budget": 1 << 23}, _c4),
    "C5": CheckDef(
        "On the two-chain with universal second relation, presym_1 is refuted, "
        "and the valuation p={0}, q={0,1} falsifies it at world 0.",
        "Direct evaluation of the designated witness plus the search witness.",
        {"budget": 1 << 20}, _c5),
    "C6": CheckDef(
        "Collapse maps from products of cluster-plus-top preorders (restricted "
        "to a bare cluster factor for the one-sided kinds) onto tack frames "
        "are p-morphisms.",
        "The finitized collapse maps for m <= 3 and all three sum kinds, "
        "verified clause by clause.",
        {"max_m": 3, "budget": 1 << 20}, _c6),
    "C7": CheckDef(
        "The validity matrix of the distinguishing formulas over the three "
        "tacks and the square separates the four families: only the square "
        "validates bh(1,*), and only the two-sided tack validates both "
        "one-sided McKinsey formulas.",
        "4x5 validity matrix over {tack(both,3), tack(1,3), tack(2,3), "
        "rect(3,3)}, compared against the frozen golden matrix.",
        {"budget": 1 << 22}, _c7),
    "C8": CheckDef(
        "The chained-box collapse axiom cas is valid on products of preorders.",
        "All pairs of preorders with <= 3 worlds each, up to isomorphism.",
        {"max_n": 3, "budget": 1 << 22}, _c8),
    "C9": CheckDef(
        "Rooted tense frames with linear preorder relations commute, are "
        "confluent, and their union relation is already reflexive-transitive.",
        "All linear preorders up to isomorphism, paired with their converses.",
        {"max_n": 5, "budget": 1 << 20}, _c9),
    "C10": CheckDef(
        "The frames (n,<=,>=) are tense frames over linear posets, validate "
        "the converse axioms, and have a reflexive-transitive union relation.",
        "Frame-side conditions plus conv validity for n <= 5.",
        {"max_n": 5, "budget": 1 << 20}, _c10),
    "C11": CheckDef(
        "The frames (m,<=,univ) validate downward directedness, the inclusion "
        "of the first diamond in the second, and the S5 axioms for the second "
        "modality.",
        "Direct validity runs for m <= 5.",
        {"max_m": 5, "budget": 1 << 22}, _c11),
    "C12": CheckDef(
        "Match frames validate their axiom list: downward directedness, "
        "presymmetry for the cluster modality, joint transitivity, joint "
        "height two, joint McKinsey, plus the per-kind axioms (symmetry; the "
        "cluster-return axiom; McKinsey for the second modality with the "
        "split axiom).",
        "All three kinds, both axes, m <= 4; an axis-2 family checks the "
        "modality swaps of the exchanged kind's list. Note: the dd rows fail "
        "on the two families whose top hangs on the cluster modality alone "
        "(axis 1 kind 2, axis 2 kind 1); a two-world countermodel exists, so "
        "this check is expected to report fail.",
        {"max_m": 4, "budget": 1 << 23}, _c12),
    "C13": CheckDef(
        "On finite chains with valuations, the restriction algebra of every "
        "singleton cluster has exactly two elements.",
        "Lifted chains m <= 5 with seeded valuations; restriction via the "
        "generated subalgebra.",
        {"max_m": 5}, _c13),
    "C14": CheckDef(
        "For each corpus model, the point-definability formula beta(r) "
        "evaluates to exactly {r}.",
        "Ten fixed models; certificates built from the layered block system "
        "and verified by direct evaluation.",
        {}, _c14),
    "C15": CheckDef(
        "One-generator formula counts over the two-sided tacks grow strictly "
        "with the cluster size (exploratory; no external number is pinned).",
        "Free-algebra counts for tack(both,m), m <= 3, with a large cap.",
        {"max_m": 3, "cap": 1 << 200, "budget": 1 << 20}, _c15),
    "C16": CheckDef(
        "Transcription note on the product definition's first-relation clause.",
        "Meta record; the standard product relation is implemented.",
        {}, _c16, meta_reason="transcription divergence note, not a runnable check"),
    "M1": CheckDef(
        "Canonical frames built from maximal consistent sets.",
        "Meta record.", {}, None, _META_REASON),
    "M2": CheckDef(
        "An infinite canonical general frame has an infinite point-generated "
        "subframe.", "Meta record.", {}, None, _META_REASON),
    "M3": CheckDef(
        "A non-locally-tabular pretransitive logic of finite height has a "
        "definable infinite cluster in some canonical frame.",
        "Meta record.", {}, None, _META_REASON),
    "M4": CheckDef(
        "Classification of the four maximal non-locally-tabular logics above "
        "products with Noetherian skeletons, and the induced local-tabularity "
        "criterion.", "Meta record.", {}, None, _META_REASON),
    "M5": CheckDef(
        "Every non-locally-tabular extension of the linear tense logic is "
        "contained in the logic of the tense chains.",
        "Meta record.", {}, None, _META_REASON),
    "M6": CheckDef(
        "The six match logics are maximal among non-locally-tabular logics.",
        "Meta record.", {}, None, _META_REASON),
    "M7": CheckDef(
        "Completeness of the commutator axiomatizations for the products of "
        "the preorder and equivalence logics.",
        "Meta record.", {}, None, _META_REASON),
    "M8": CheckDef(
        "The tack logics coincide with the logics of single tacks over an "
        "infinite rectangle.", "Meta record.", {}, None, _META_REASON),
}


def run_check(check_id: str, params: dict | None = None,
              seed: int = DEFAULT_SEED) -> CheckRecord:
    definition = CHECKS.get(check_id)
    if definition is None:
        raise UnknownCheck(f"unknown check id {check_id!r}")
    merged = dict(definition.params)
    if params:
        merged.update(params)
    if definition.meta_reason is not None:
        transcript = [f"meta - not desk-verifiable: {definition.meta_reason}"]
        if definition.run is not None:
            definition.run(merged, Random(seed), transcript)
        return CheckRecord(check_id, definition.anchor, definition.description,
                           merged, "meta-not-verifiable", tuple(transcript))
    out: list[str] = []
    ok = definition.run(merged, Random(seed), out)
    return CheckRecord(check_id, definition.anchor, definition.description,
                       merged, "pass" if ok else "fail", tuple(out))


def _check_order(check_id: str) -> tuple:
    return (check_id[0], int(check_id[1:]))


def run_all(seed: int = DEFAULT_SEED,
            params: dict[str, dict] | None = None) -> list[CheckRecord]:
    records = []
    for check_id in sorted(CHECKS, key=_check_order):
        override = (params or {}).get(check_id)
        records.append(run_check(check_id, override, seed=seed))
    return records


def report_json(records: list[CheckRecord]) -> bytes:
    doc = [r.to_json_dict() for r in records]
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# --- axiom profiler --------------------------------------------------------

PROFILE_ROWS: tuple[tuple[str, tuple], ...] = (
    ("bh(1,1)", ("bh", (1, 1))), ("bh(1,2)", ("bh", (1, 2))),
    ("bh(1,v)", ("bh", (1, "v"))), ("bh(1,*)", ("bh", (1, "*"))),
    ("bh(2,*)", ("bh", (2, "*"))),
    ("rp(1,v)", ("rp", (1, "v"))), ("rp(2,v)", ("rp", (2, "v"))),
    ("com", ("com", ())), ("chr", ("chr", ())),
    ("presym(1)", ("presym", (1,))), ("presym(2)", ("presym", (2,))),
    ("presym", ("presym", ())), ("conv", ("conv", ())), ("dd", ("dd", ())),
    ("mck(1)", ("mck", (1,))), ("mck(2)", ("mck", (2,))),
    ("mck(*)", ("mck", ("*",))),
    ("dot3(1)", ("dot3", (1,))), ("dot3(2)", ("dot3", (2,))),
    ("sym2", ("sym2", ())), ("match2_ax", ("match2_ax", ())),
    ("match12_ax", ("match12_ax", ())), ("cas", ("cas", ())),
    ("u_incl", ("u_incl", ())),
    ("triv_ax(1)", ("triv_ax", (1,))), ("triv_ax(2)", ("triv_ax", (2,))),
    ("s4_ax(1)", ("s4_ax", (1,))), ("s4_ax(2)", ("s4_ax", (2,))),
    ("s5_ax(1)", ("s5_ax", (1,))), ("s5_ax(2)", ("s5_ax", (2,))),
)


@dataclass(frozen=True)
class ProfileRow:
    label: str
    formula: str
    status: str        # "valid" | "invalid" | "budget-exceeded"


def axiom_profile(f: Frame | GeneralFrame,
                  budget: int = 1 << 22) -> list[ProfileRow]:
    """Validity verdict for every registry formula at default variables,
    in a stable row order."""
    rows = []
    for label, (name, args) in PROFILE_ROWS:
        formula = named_formula(name, list(args))
        try:
            status = "valid" if valid(f, formula, budget=budget) else "invalid"
        except BudgetExceeded:
            status = "budget-exceeded"
        rows.append(ProfileRow(label, print_formula(formula), status))
    return rows

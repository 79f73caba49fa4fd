import random
from collections import Counter
from itertools import product as iproduct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import kripkebench.semantics as S

from kripkebench.algebra import generated_subalgebra
from kripkebench.constructions import (chain, cluster, lift, lintgrz, product,
                                       rect, singleton, tack, univ_chain)
from kripkebench.enumeration import (_kept_coordinates, all_bimodal_frames,
                                     all_preorders, automorphism_generators)
from kripkebench.errors import BudgetExceeded, FormatError
from kripkebench.formulas import (And, Bot, Dia, Not, Or, ReachBox, ReachDia,
                                  Top, Var, dia_star, named_formula, parse,
                                  variables)
from kripkebench.frames import (Frame, GeneralFrame, UniFrame, frame_property,
                                kripke_of, pull, rt_closure)
from kripkebench.semantics import (Model, eval_formula, refutes_witness, valid,
                                   valid_each)

import oracle
from conftest import as_general, disjoint_union, formulas, frames, full_algebra
from oracle import generated_subframe


def test_eval_examples():
    m = Model(univ_chain(2), {0: 0b10})
    assert eval_formula(m, parse("<1>p0")) == 0b11
    assert eval_formula(m, parse("true")) == 0b11
    assert eval_formula(m, parse("p7")) == 0  # absent variable is empty

    witness_model = Model(univ_chain(2), {0: 0b01, 1: 0b11})
    ext = eval_formula(witness_model, named_formula("presym", [1]))
    assert not ext >> 0 & 1


def test_model_admissibility():
    g = GeneralFrame(lift(chain(2)), (0b00, 0b11))
    with pytest.raises(FormatError, match="admissible"):
        Model(g, {0: 0b01})
    Model(g, {0: 0b11})  # fine


def test_valid_examples():
    assert not valid(univ_chain(2), named_formula("presym", [1]))
    presym = named_formula("presym")
    for a in (chain(2), cluster(2), chain(3)):
        for b in (chain(2), cluster(3)):
            assert valid(product(a, b), presym, budget=1 << 23)
    for n in range(1, 5):
        F = lift(chain(n))
        for k in range(5):
            assert valid(F, named_formula("bh", [k, 1]), budget=1 << 22) == (k >= n)


def test_valid_on_general_frame_uses_algebra():
    # on the two-chain with only the trivial algebra, p0 -> <1>... everything
    # admissible is constant, so even p0 -> [1]p0 becomes valid
    frame = lift(chain(2))
    g = GeneralFrame(frame, (0b00, 0b11))
    assert not valid(frame, parse("p0 -> [1]p0"))
    assert valid(g, parse("p0 -> [1]p0"))


def test_budget_exceeded():
    # the need is what the guard compares: valuations times worlds
    with pytest.raises(BudgetExceeded) as e:
        valid(rect(3, 3), named_formula("presym"), budget=100)
    assert e.value.needed == (1 << 9) ** 2 * 9
    assert e.value.needed > e.value.budget == 100
    # 16 valuations fit a budget of 20, their 16 x 4 cells do not
    for search in (valid, refutes_witness):
        with pytest.raises(BudgetExceeded) as e:
            search(product(chain(2), chain(2)), parse("p0 -> [1]p0"), budget=20)
        assert e.value.needed == 64 > e.value.budget == 20


def test_refutes_witness_examples():
    w = refutes_witness(univ_chain(2), named_formula("presym", [1]))
    assert w is not None
    model = Model(univ_chain(2), w.as_dict())
    assert not eval_formula(model, named_formula("presym", [1])) >> w.world & 1

    assert refutes_witness(singleton(), parse("p0 -> <1>p0")) is None

    w = refutes_witness(lift(chain(3)), named_formula("bh", [1, 1]))
    assert w is not None
    model = Model(lift(chain(3)), w.as_dict())
    assert not eval_formula(model, named_formula("bh", [1, 1])) >> w.world & 1


def test_witness_is_lexicographically_least():
    # reference: enumerate assignments in bitstring-order by hand
    f = parse("p0 -> [1]p0")
    g = lift(chain(2))
    w = refutes_witness(g, f)
    cands = sorted(range(4), key=lambda m: (m & 1, m >> 1 & 1))
    best = None
    for mask in cands:
        ext = eval_formula(Model(g, {0: mask}), f)
        if ext != 0b11:
            missing = [i for i in range(2) if not ext >> i & 1]
            best = ({0: mask}, missing[0])
            break
    assert w.as_dict() == best[0] and w.world == best[1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frames(max_n=4), formulas(max_depth=3, max_vars=3, reach=True),
       st.integers(0, 15), st.booleans())
def test_search_matches_oracle(f, phi, gen, general):
    g = GeneralFrame(f, generated_subalgebra(f, [gen & f.full]).elements) \
        if general else f
    w = refutes_witness(g, phi, budget=1 << 22)
    expected = oracle.least_witness(g, phi)
    assert (w is None) == (expected is None)
    if w is not None:
        assert (w.valuation, w.world) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(frames(max_n=4), formulas(max_depth=4, max_vars=3, reach=True),
       st.lists(st.integers(0, 15), min_size=3, max_size=3))
def test_eval_matches_oracle(f, phi, masks):
    val = {v: mask & f.full for v, mask in enumerate(masks)}
    assert eval_formula(Model(f, val), phi) == oracle.extension(f, val, phi)


def test_witness_beyond_first_block():
    # 4 variables over 32 candidate sets: with 2^14-cell blocks p0 is fixed
    # per block and p1 is cut into two ranges; the least witness (p0 = {4},
    # p1 = everything) lies in the fourth block, deep in p1's second range
    f = parse("~(p0 & [1]p1 & (p2 | ~p2) & (p3 | ~p3))")
    g = lift(cluster(5))
    w = refutes_witness(g, f, budget=1 << 23)
    assert (w.valuation, w.world) == oracle.least_witness(g, f)
    assert w.valuation == ((0, 0b10000), (1, 0b11111), (2, 0), (3, 0))
    assert w.world == 4


def test_witness_beyond_first_range_of_one_axis():
    # 2^16 candidates for one variable: the first set containing world 0 is
    # {0}, at index 2^15 in bitstring order, two ranges past the first
    w = refutes_witness(lintgrz(16), parse("~[2]p0"), budget=1 << 20)
    assert w.valuation == ((0, 1),) and w.world == 0


def test_witness_sixteen_variables_on_singleton():
    # 16 variables on the reflexive singleton give 2^16 assignments; the only
    # refutation is the very last one in enumeration order
    f = Var(0)
    for v in range(1, 16):
        f = And(f, Var(v))
    f = Not(f)
    g = singleton()
    w = refutes_witness(g, f, budget=1 << 20)
    assert w.valuation == tuple((v, 1) for v in range(16))
    assert w.world == 0
    assert (w.valuation, w.world) == oracle.least_witness(g, f)


def _marked_chain(n: int) -> Frame:
    # a reflexive chain whose root alone has an r2-successor
    return Frame(n, lift(chain(n)).r1, (1,) + (0,) * (n - 1))


def _star(n: int, loop: int) -> Frame:
    # world 0 r1-sees the others, and itself when loop is 1; no other edge
    return Frame(n, ((1 << n) - 2 + loop,) + (0,) * (n - 1), (0,) * n)


@pytest.mark.parametrize("g, text", [
    # one variable: 2^14 cells are one block, 2^15 two
    (lift(chain(14)), "<1>p0 -> p0"),
    (lift(chain(15)), "<1>p0 -> p0"),
    # refuted only where p0 holds at the root: the first cell of the upper
    # half of the space, and a first block without a refuted cell
    (_marked_chain(14), "p0 -> [2]false"),
    (_marked_chain(15), "p0 -> [2]false"),
    # refuted only where p0 holds at every successor of the root: the last
    # cell of the only block, and the last cell of the first of two
    (_star(14, 1), "[1]p0 -> [1]false"),
    (_star(15, 0), "[1]p0 -> [1]false"),
    # two variables: 2^14 cells on 7 worlds, four blocks on 8
    (lift(chain(7)), "(<1>p0 & <1>p1) -> <1>(p0 & p1)"),
    (lift(chain(8)), "(<1>p0 & <1>p1) -> <1>(p0 & p1)"),
    (_marked_chain(7), "~(p0 & p1 & <2>true)"),
    (_marked_chain(8), "~(p0 & p1 & <2>true)"),
    # a general frame, three variables over 16 and 32 sets: 2^12 and 2^15 cells
    (GeneralFrame(_marked_chain(4), full_algebra(4)), "~(p0 & p1 & p2 & <2>true)"),
    (GeneralFrame(_marked_chain(5), full_algebra(5)), "~(p0 & p1 & p2 & <2>true)"),
    # roots constant along some axes, which broadcast against them
    (lift(chain(14)), "p0 & false"),
    (lift(chain(15)), "p0 & false"),
    (lift(chain(7)), "p0 & (p1 | ~p1)"),
    (lift(chain(8)), "p0 & (p1 | ~p1)"),
    (lift(chain(8)), "(p1 | ~p1) -> [1]p0"),
], ids=lambda x: x if isinstance(x, str) else f"{type(x).__name__}{kripke_of(x).n}")
def test_least_witness_at_the_block_boundary(g, text):
    phi = parse(text)
    assert _pair(refutes_witness(g, phi, budget=1 << 23)) == oracle.least_witness(g, phi)


@pytest.mark.parametrize("n, text", [(14, "p0 | ~p0"), (15, "p0 | ~p0"),
                                     (7, "(p1 & ~p1) | p0 | ~p0"),
                                     (8, "(p1 & ~p1) | p0 | ~p0")])
def test_valid_at_the_block_boundary(n, text):
    # no block has a refuted cell: one block at 2^14 cells, several above
    g, phi = lift(chain(n)), parse(text)
    assert refutes_witness(g, phi, budget=1 << 23) is None
    assert valid(g, phi, budget=1 << 23)


def test_pinned_witnesses_on_large_frames():
    # 17 worlds: past the preimage table, a row-wise preimage
    w = refutes_witness(lintgrz(17), parse("p0 -> [1]p0"), budget=1 << 23)
    assert w.valuation == ((0, 32768),) and w.world == 15
    # 70 worlds: masks wider than 64 bits
    big = lintgrz(70)
    g = GeneralFrame(big, generated_subalgebra(big, [1 << 35]).elements)
    w = refutes_witness(g, parse("p0 -> [1]p0"))
    assert w.valuation == ((0, 1 << 35),) and w.world == 35
    assert valid(g, parse("p0 -> [1]<2>p0"))


# Search cells are the narrowest unsigned type holding n bits; the tests
# below sit on either side of each width, with witnesses using the top world.

def _pair(w):
    return None if w is None else (w.valuation, w.world)


def _random_frame(n: int, seed: int) -> Frame:
    rng = random.Random(seed)
    return Frame(n, tuple(rng.getrandbits(n) for _ in range(n)),
                 tuple(rng.getrandbits(n) for _ in range(n)))


@pytest.mark.parametrize("n", [8, 9])
def test_search_matches_oracle_at_eight_and_nine_worlds(n):
    for g in (lintgrz(n), lift(chain(n)), _random_frame(n, n)):
        for text in ("p0 -> [1]p0", "<1>p0 -> p0", "p0 -> <1>~p0",
                     "<1>[2]p0 -> [2]<1>p0", "p0 -> [1]<2>p0", "~[*]p0"):
            phi = parse(text)
            expected = oracle.least_witness(g, phi)
            w = refutes_witness(g, phi)
            assert _pair(w) == expected, (g, text)
            assert valid(g, phi) == (expected is None), (g, text)


@pytest.mark.parametrize("n", [16, 17])
def test_pinned_witnesses_at_sixteen_and_seventeen_worlds(n):
    g, top = lintgrz(n), 1 << n - 1
    for text, valuation, world in (("<1>p0 -> p0", top, 0),
                                   ("p0 -> <1>~p0", top, n - 1),
                                   ("~[*]p0", g.full, 0)):  # the last cell
        w = refutes_witness(g, parse(text), budget=1 << 23)
        assert (w.valuation, w.world) == (((0, valuation),), world), text
    assert valid(g, parse("p0 -> [1]<2>p0"), budget=1 << 23)
    assert not valid(g, parse("<1>p0 -> p0"), budget=1 << 23)


@pytest.mark.parametrize("n", [32, 33, 64, 65])
def test_search_matches_oracle_on_wide_general_frames(n):
    # a lifted cluster (r1 universal, r2 the identity) with the algebra
    # {0, A, ~A, W}, A the top world
    f, top = lift(cluster(n)), 1 << n - 1
    g = GeneralFrame(f, (0, top, f.full ^ top, f.full))
    w = refutes_witness(g, parse("p0 -> [1]p0"))
    assert (w.valuation, w.world) == (((0, top),), n - 1)
    for text in ("p0 -> [1]p0", "<1>p0 -> p0", "[1]p0 | [1]~p0",
                 "<1>p0 & <1>p1 -> <1>(p0 & p1)", "p0 & p1 -> <2>(p0 & p1)",
                 "(p0 | p1) -> [2](p0 | p1)", "~[*]p0"):
        phi = parse(text)
        expected = oracle.least_witness(g, phi)
        w = refutes_witness(g, phi)
        assert _pair(w) == expected, text
        assert valid(g, phi) == (expected is None), text


def test_kripke_candidate_axis_is_the_full_algebra():
    for n in range(11):
        axis = S._all_sets(n)
        assert axis.dtype == S._cell_dtype(n) and not axis.flags.writeable
        assert axis.tolist() == list(full_algebra(n)), n


def test_variable_free_formulas_need_no_candidates(monkeypatch):
    def no_candidates(n):
        raise AssertionError("candidate sets built for a variable-free formula")

    monkeypatch.setattr(S, "_all_sets", no_candidates)
    assert valid(lintgrz(20), parse("[1]true"))
    assert valid(lintgrz(30), parse("[1]true & <2>true"))
    w = refutes_witness(lintgrz(30), parse("<2>[1]false | [1]<1>false"))
    assert w.valuation == () and w.world == 0
    assert refutes_witness(lintgrz(30), parse("<1>~<2>true")).world == 0
    assert refutes_witness(lift(chain(30)), parse("<2>(false)")) is not None
    assert valid(lift(chain(30)), parse("<2>true"))


def test_reach_modality():
    pr = product(chain(2), chain(2))
    for mask in range(1 << 4):
        m = Model(pr, {0: mask})
        assert eval_formula(m, dia_star(Var(0))) == \
            eval_formula(m, ReachDia(Var(0)))

    chain4 = lift(chain(4))
    m = Model(chain4, {0: 0b1000})
    assert eval_formula(m, ReachDia(Var(0))) == \
        eval_formula(m, dia_star(Var(0))) == 0b1111

    cover4 = Frame(4, (0b0010, 0b0100, 0b1000, 0b0000), (0, 0, 0, 0))
    m = Model(cover4, {0: 0b1000})
    assert eval_formula(m, dia_star(Var(0))) != \
        eval_formula(m, ReachDia(Var(0)))


def test_reach_vs_star_separation_needs_four_worlds():
    # brute force: on every frame with at most 3 worlds they agree
    for n in (1, 2, 3):
        for bits1 in range(1 << (n * n)):
            r1 = tuple((bits1 >> (i * n)) & ((1 << n) - 1) for i in range(n))
            F = Frame(n, r1, (0,) * n)
            for mask in range(1 << n):
                m = Model(F, {0: mask})
                assert eval_formula(m, dia_star(Var(0))) == \
                    eval_formula(m, ReachDia(Var(0)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(frames(max_n=4), formulas(max_depth=4, max_vars=2),
       formulas(max_depth=4, max_vars=2))
def test_kripke_clauses(f, a, b):
    rows_needed = max(variables(a) | variables(b) | {0}) + 1
    val = {v: (0b0101 >> v & 1) * ((1 << f.n) - 1) for v in range(rows_needed)}
    m = Model(f, val)
    assert eval_formula(m, Or(a, b)) == eval_formula(m, a) | eval_formula(m, b)
    assert eval_formula(m, Dia(1, Bot())) == 0
    assert eval_formula(m, Dia(2, Bot())) == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frames(max_n=4), formulas(max_depth=4, max_vars=2))
def test_generated_subframe_preserves_truth(f, phi):
    val = {0: 0b0110 & f.full, 1: 0b1010 & f.full}
    m = Model(f, val)
    ext = eval_formula(m, phi)
    for a in range(f.n):
        sub, reach = generated_subframe(f, 1 << a)
        keep = [w for w in range(f.n) if reach >> w & 1]
        pos = keep.index(a)
        sub_val = {v: sum(1 << i for i, w in enumerate(keep) if mask >> w & 1)
                   for v, mask in val.items()}
        sub_ext = eval_formula(Model(sub, sub_val), phi)
        assert (ext >> a & 1) == (sub_ext >> pos & 1)


def test_correspondence_small_exhaustive():
    for F in all_bimodal_frames(2):
        assert valid(F, named_formula("com")) == frame_property(F, "com")
        assert valid(F, named_formula("chr")) == frame_property(F, "cr")
        assert valid(F, named_formula("conv")) == frame_property(F, "tense")
        for m in (0, 1):
            assert valid(F, named_formula("rp", [m, "v"]), budget=1 << 22) == \
                frame_property(F, "rp", (m,))


# --- validity on maximal point-generated subframes ------------------------

SPLIT_FORMULAS = [named_formula(name) for name in
                  ("com", "chr", "conv", "presym", "dd", "u_incl", "sym2",
                   "match2_ax", "match12_ax")] + \
    [parse(text) for text in ("p0 -> <1>p0", "<1><1>p0 -> <1>p0",
                              "p0 -> <2>p0", "<2><2>p0 -> <2>p0")]


def _space(g):
    return len(g.algebra) if isinstance(g, GeneralFrame) else 1 << g.n


def _mentioning(phi, k):
    """``phi`` conjoined with tautologies in p0..p(k-1), so that at least k
    variables occur and the verdict stays the same."""
    for v in range(k):
        phi = And(phi, Or(Var(v), Not(Var(v))))
    return phi


@st.composite
def preorders(draw, max_n):
    n = draw(st.integers(1, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return UniFrame(n, rt_closure(rows, n))


def _side_by_side(a, b):
    return UniFrame(a.n + b.n, a.rows + tuple(row << a.n for row in b.rows))


def _parts():
    """Random frames, lifted preorders and products of preorders."""
    return st.one_of(frames(max_n=4), preorders(3).map(lift),
                     st.tuples(preorders(2), preorders(2)).map(
                         lambda ab: product(*ab)))


@st.composite
def non_rooted_frames(draw):
    """Disjoint unions, products with a non-rooted factor, and general frames
    on disjoint unions."""
    kind = draw(st.sampled_from(("union", "product", "general")))
    if kind == "union":
        return disjoint_union(*draw(st.lists(_parts(), min_size=2, max_size=3)))
    if kind == "product":
        a = _side_by_side(draw(preorders(2)), draw(preorders(2)))
        return product(a, draw(preorders(3)))
    F = disjoint_union(draw(_parts()), draw(_parts()))
    gens = draw(st.lists(st.integers(0, F.full), min_size=1, max_size=3))
    return GeneralFrame(F, generated_subalgebra(F, gens).elements)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(non_rooted_frames(),
       st.one_of(formulas(max_depth=3, max_vars=2, reach=True),
                 st.sampled_from(SPLIT_FORMULAS)),
       st.booleans())
def test_valid_matches_whole_frame_search(g, phi, above):
    # with ``above``, enough variables occur for more than one block
    k = len(variables(phi))
    while above and _space(g) ** k <= S._BLOCK:
        k += 1
    phi = _mentioning(phi, k)
    k = len(variables(phi))
    assume(_space(g) ** k * g.n <= 1 << 22)
    assert valid(g, phi, budget=1 << 22) == \
        (refutes_witness(g, phi, budget=1 << 22) is None)


def _split_cases():
    """Non-rooted frames above one block, one of each kind, each with a
    formula it validates and one it refutes."""
    antichain = UniFrame(3, (0b001, 0b010, 0b100))
    vee = UniFrame(3, (0b101, 0b110, 0b100))  # two roots below one top
    union = disjoint_union(lift(chain(2)), product(chain(2), chain(2)),
                           lift(cluster(2)))
    general = GeneralFrame(union, generated_subalgebra(union, [0b00100100]).elements)
    presym = named_formula("presym")
    refuted = parse("p0 & p1 -> [1](p0 & p1) & [2](p0 & p1)")
    return [(product(antichain, chain(3)), presym, refuted),
            (product(vee, cluster(3)), presym, refuted),
            (union, parse("p0 & p1 -> <1>p0"), refuted),
            (general, parse("p0 & p1 & p2 -> <2>p1"), parse("~(p0 & ~p1 & p2)"))]


def test_split_cases_are_above_one_block_and_match_the_oracle():
    for g, holds, fails in _split_cases():
        for phi, verdict in ((holds, True), (fails, False)):
            assert _space(g) ** len(variables(phi)) > S._BLOCK
            assert len(S._maximal_parts(g)) > 1
            assert valid(g, phi, budget=1 << 24) is verdict
            assert (refutes_witness(g, phi, budget=1 << 24) is None) is verdict


def test_only_the_last_or_first_part_refutes():
    # reflexive singletons validate the formula; the two-chain refutes it
    f = parse("p0 & p1 -> [1](p0 & p1)")
    points = [singleton()] * 6
    for F in (disjoint_union(*points, lift(chain(2))),
              disjoint_union(lift(chain(2)), *points)):
        assert _space(F) ** 2 > S._BLOCK
        assert not valid(F, f)
    assert valid(disjoint_union(*points, singleton(), singleton()), f)


def test_search_runs_once_per_distinct_maximal_part(monkeypatch):
    calls = []
    search_part = S._search_refutation

    def counted(g, *args):
        calls.append(g.n)
        return search_part(g, *args)

    monkeypatch.setattr(S, "_search_refutation", counted)
    presym = named_formula("presym")
    antichain = UniFrame(3, (0b001, 0b010, 0b100))

    def searched(g, phi, search=valid):
        calls.clear()
        search(g, phi, budget=1 << 23)
        return list(calls)

    # rooted, above one block: the whole frame, once, as it is
    F = rect(3, 3)
    assert searched(F, presym) == [9]
    assert [p is F for p in S._maximal_parts(F)] == [True]
    # not rooted, but below one block: the whole frame, once
    assert searched(product(antichain, chain(2)), presym) == [6]
    assert searched(disjoint_union(*[singleton()] * 7), presym) == [7]  # 2^14
    # above one block: each distinct maximal part once; each part of
    # antichain x cluster(3) is generated by three worlds
    assert searched(product(antichain, chain(3)), presym) == [3, 3, 3]
    assert searched(product(antichain, cluster(3)), presym) == [3, 3, 3]
    for g, holds, _ in _split_cases():
        assert searched(g, holds) == [p.n for p in S._maximal_parts(g)]
    # the search stops at the first refuted part
    assert searched(disjoint_union(lift(chain(2)), *[singleton()] * 6),
                    parse("p0 & p1 -> [1](p0 & p1)")) == [2]
    # refutes_witness stays one search of the whole frame
    assert searched(product(antichain, chain(3)), presym,
                    refutes_witness) == [9]


def _spy_walks(monkeypatch):
    """Record the program of every search walk and the region order of every
    table walk (a walk given seed values)."""
    programs, tables = [], []
    walk = S._walk

    def spied(order, leaves, full, pre, seed=()):
        (tables if seed else programs).append(order)
        return walk(order, leaves, full, pre, seed)

    monkeypatch.setattr(S, "_walk", spied)
    return programs, tables


def test_plan_is_built_once_per_formula(monkeypatch):
    orders = []
    build = S.nodes
    monkeypatch.setattr(S, "nodes", lambda f: orders.append(f) or build(f))
    programs, tables = _spy_walks(monkeypatch)
    presym = named_formula("presym")
    g = product(UniFrame(3, (0b001, 0b010, 0b100)), chain(3))
    S._plan.cache_clear()

    def search(run, *args):
        orders.clear()
        programs.clear()
        tables.clear()
        return run(*args, budget=1 << 23)

    # valid walks each of three parts in one block: the plain order, and no
    # region is worked out
    assert search(valid, g, presym) is True
    assert orders == [presym] and S._plan.cache_info().misses == 1
    plan = S._plan(presym)
    assert len(programs) == 3 and all(p is plan.order for p in programs)
    assert tables == [] and "fused" not in vars(plan)
    # refutes_witness walks the whole frame in 16 blocks: one table per
    # gather, and every block runs the same program
    assert search(refutes_witness, g, presym) is None
    gathers = [h for h in plan.fused if type(h) is S._Gather]
    assert S._plan.cache_info().misses == 1 and len(orders) == len(gathers) == 8
    assert tables == [h.region for h in gathers]
    assert len(programs) == 16 and all(p is programs[0] for p in programs)
    assert [h.node for h in programs[0] if type(h) is S._Gather] == \
        [h.node for h in gathers]
    assert len(programs[0]) < len(plan.order)
    # a second search of both builds nothing
    assert search(refutes_witness, g, presym) is None
    assert orders == [] and S._plan.cache_info().misses == 1
    # a second formula is planned once as well; a rooted one-block search
    # builds no table
    f = parse("p0 -> <1><2>p0")
    assert search(valid, lift(chain(3)), f) is True
    assert search(refutes_witness, lift(chain(3)), f) is None
    assert tables == [] and S._plan.cache_info().misses == 2
    assert programs == [S._plan(f).order]
    orders.clear()
    eval_formula(Model(g, {0: 0b1}), presym)
    assert len(orders) == 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(frames(max_n=6), formulas(max_depth=3, max_vars=3, reach=True),
       st.integers(0, 63), st.booleans())
def test_fused_search_matches_unfused(f, phi, gen, general):
    g = GeneralFrame(f, generated_subalgebra(f, [gen & f.full]).elements) \
        if general else f
    k = len(variables(phi))
    while _space(g) ** k <= S._BLOCK:
        k += 1
    phi = _mentioning(phi, k)
    assume(_space(g) ** len(variables(phi)) * g.n <= 1 << 22)
    fused = (_pair(refutes_witness(g, phi, budget=1 << 22)),
             valid(g, phi, budget=1 << 22))
    with pytest.MonkeyPatch.context() as mp:
        # fusion off: every search runs the plain node order
        mp.setattr(S._Plan, "fused", property(lambda plan: plan.order))
        assert (_pair(refutes_witness(g, phi, budget=1 << 22)),
                valid(g, phi, budget=1 << 22)) == fused


def _replaced(f, old, new):
    """``f`` with the node ``old`` replaced by ``new``."""
    out = {}
    for g in S.nodes(f):
        if g is old:
            out[g] = new
        else:
            cls, fields = g.__reduce__()
            out[g] = cls(*(out[a] if isinstance(a, S.Formula) else a
                           for a in fields))
    return out[f]


def test_every_table_is_its_region_over_every_mask(monkeypatch):
    # each table, indexed by a mask x, is the region's extension with its
    # base replaced by a fresh variable valued x
    programs, _ = _spy_walks(monkeypatch)
    bases = set()
    formulas = [named_formula("presym"), named_formula("bh", [2, 1]),
                named_formula("com"), parse("<1>(p0 & p1) -> [2](p0 & p1)"),
                ReachDia(And(Var(0), Not(Dia(2, Var(1))))),
                parse("[1](p0 | false) & (<2>true -> <1>p1)")]
    for frame in (lift(chain(3)), product(chain(2), cluster(3)),
                  _random_frame(5, 1), _random_frame(6, 2)):
        k = next(k for k in range(20) if _space(frame) ** k > S._BLOCK)
        for phi in formulas:
            phi = _mentioning(phi, k)
            programs.clear()
            refutes_witness(frame, phi, budget=1 << 22)
            gathers = [h for h in programs[0] if type(h) is S._Gather]
            assert len(gathers) == len([h for h in S._plan(phi).fused
                                        if type(h) is S._Gather]) > 0
            for h in gathers:
                bases.add(type(h.base))
                region = _replaced(h.node, h.base, Var(99))
                assert variables(region) == {99}, (phi, h.node)
                assert [int(x) for x in h.table] == [
                    eval_formula(Model(frame, {99: x}), region)
                    for x in range(1 << frame.n)], (phi, h.node)
    assert Var in bases and len(bases) > 1  # variables and binary nodes as bases


def test_split_budget_sums_the_parts_before_any_search():
    F = disjoint_union(*[product(chain(2), chain(2))] * 4)  # 4 parts of 4 worlds
    need = 4 * (1 << 4) * 4
    holds, fails = parse("p0 -> <1>p0"), parse("p0 -> [1]p0")
    assert valid(F, holds, budget=need)
    assert not valid(F, fails, budget=need)
    for phi in (holds, fails):  # raised whichever part refutes
        with pytest.raises(BudgetExceeded) as e:
            valid(F, phi, budget=need - 1)
        assert e.value.needed == need
    # the whole-frame search needs 2^16 valuations x 16 worlds
    with pytest.raises(BudgetExceeded) as e:
        refutes_witness(F, fails, budget=need)
    assert e.value.needed == (1 << 16) * 16


def test_split_lifts_the_world_limit_to_each_part():
    F = disjoint_union(*[lift(chain(3))] * 10)  # 30 worlds, ten parts of 3
    f = parse("p0 -> <1>p0")
    assert valid(F, f)
    with pytest.raises(FormatError, match="n <= 24"):
        refutes_witness(F, f)
    with pytest.raises(FormatError, match="n <= 24"):
        valid(disjoint_union(lift(chain(25)), singleton()), f)


# Separable parts: ``valid`` searches each part whose variables occur nowhere
# else once, for its reachable extensions, and the outer formula over them.

@settings(max_examples=150, deadline=None, derandomize=True)
@given(frames(max_n=5), formulas(max_depth=4, max_vars=4, reach=True),
       st.integers(0, 31), st.booleans(), st.booleans())
def test_split_keeps_every_verdict(f, phi, gen, general, fresh):
    g = GeneralFrame(f, generated_subalgebra(f, [gen & f.full]).elements) \
        if general else f
    # above one block, with tautologies in the formula's own variables, which
    # leave its parts as they are, or in one fresh variable more than that
    # needs, which makes the formula a part of a part that splits in turn
    own = len(variables(phi))
    k = own
    while _space(g) ** k <= S._BLOCK:
        k += 1
    pushed = phi
    for v in range(4, 5 + k - own) if fresh else range(k):
        pushed = And(pushed, Or(Var(v), Not(Var(v))))
    assume(_space(g) ** len(variables(pushed)) * g.n <= 1 << 23)
    verdict = valid(g, pushed, budget=1 << 23)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S._Plan, "split", property(lambda plan: None))
        assert valid(g, pushed, budget=1 << 23) is verdict
    if _space(g) ** own <= 256:
        assert verdict is (oracle.least_witness(g, phi) is None)
    else:
        assert verdict is (refutes_witness(g, phi, budget=1 << 23) is None)


def test_reachable_extensions_match_the_oracle():
    general = lift(chain(5))
    general = GeneralFrame(general, generated_subalgebra(
        general, [0b00110, 0b10000]).elements)
    assert len(general.algebra) ** 5 > S._BLOCK
    cases = [(lift(chain(5)), named_formula("bh", [3, 1])),
             (_random_frame(5, 3), named_formula("bh", [3, "*"])),
             (product(chain(2), cluster(2)), named_formula("bh", [4, 2])),
             (general, parse("(p0 -> <1>p0) & [1](p1 | <2>p2) & "
                             "(p3 & [2]p4 -> <1>p3)")),
             # a symmetric frame whose part, equivalent to p0, has three
             # variables that do not split, above one block: its extensions
             # are every set, not only the least of each orbit
             (tack("both", 2), parse("p3 -> [1](p3 | ((p0 & p1 & p2) | "
                                     "(p0 & ~p1) | (p0 & p1 & ~p2)))"))]
    for g, phi in cases:
        frame = g.frame if isinstance(g, GeneralFrame) else g
        plan = S._plan(phi)
        _, lists = S._factored(g, plan)
        assert lists.keys() == plan.split[1].keys() != set()
        for v, extensions in lists.items():
            part = plan.split[1][v]
            expected = {oracle.extension(frame, dict(zip(part.occurring, combo)),
                                         part.order[-1])
                        for combo in iproduct(oracle.candidates(g),
                                              repeat=len(part.occurring))}
            assert [int(x) for x in extensions] == sorted(expected), (phi, v)
        # a collection split in turn finds what the whole one finds
        whole = S._search_refutation(g, plan, collect=True)
        assert list(S._search_refutation(g, *S._factored(g, plan), collect=True)) \
            == list(whole)


def test_bh_splits_off_the_next_lower_height():
    plan = S._plan(named_formula("bh", [4, 1]))
    for k in (4, 3, 2):
        outer, parts = plan.split
        assert outer.order[-1] is parse(f"p{k} -> [1](<1>p{k} | p{k + 1})")
        assert parts == {k + 1: S._plan(named_formula("bh", [k - 1, 1]))}
        plan = parts[k + 1]
    assert plan.split is None  # bh(1,1) has one variable


def test_only_parts_whose_variables_occur_nowhere_else_split():
    for text in ("p0 & <1>(p0 | p1)", "[1](p0 -> p1) & [2](p1 -> p0)",
                 "<1>p0 -> p0", "true & <1>false"):
        assert S._plan(parse(text)).split is None, text
    # a part used twice is one node, replaced at both uses
    shared = parse("<1>(p1 & [2]p2)")
    outer, parts = S._plan(parse(f"(p0 -> [1]{shared}) & (<2>{shared} | p0)")).split
    assert outer.order[-1] is parse("(p0 -> [1]p3) & (<2>p3 | p0)")
    assert parts == {3: S._plan(shared)}
    # two disjoint parts each split, numbered from the root down
    outer, parts = S._plan(parse("[1]<2>p0 & (p2 -> <1>[2]p1) & <2>p2")).split
    assert outer.order[-1] is parse("p4 & (p2 -> p3) & <2>p2")
    assert parts == {3: S._plan(parse("<1>[2]p1")), 4: S._plan(parse("[1]<2>p0"))}
    # fresh variables come after every occurring one: were they p0 and p1,
    # p0 would range over the one extension of a tautology, and this would
    # read valid
    phi = parse("p0 -> [1](p0 & [2](p1 | ~p1) & <1>(p2 | ~p2))")
    assert sorted(S._plan(phi).split[1]) == [3, 4]
    assert valid(lift(chain(5)), phi) is False


def test_one_block_search_never_builds_the_split():
    S._plan.cache_clear()
    bh = named_formula("bh", [4, 1])
    assert valid(lift(chain(3)), bh) is True  # 8^4 cells, one block
    assert valid(disjoint_union(lift(chain(3)), singleton()), bh) is True
    assert refutes_witness(lift(chain(5)), bh, budget=1 << 23) is not None
    assert "split" not in vars(S._plan(bh))
    assert valid(lift(chain(5)), bh, budget=1 << 23) is False
    assert "split" in vars(S._plan(bh))


def test_block_cutting_with_unequal_lists():
    # lists of 3, 40 and 700 masks over 10 worlds: 16384 // 700 = 23 values
    # of the middle axis per block, so a block boundary falls inside it; the
    # least witness sits in the second value of the first axis
    rng, top = random.Random(7), 1 << 9
    low = [rng.getrandbits(9) for _ in range(740)]
    lists = [[0, top, rng.getrandbits(10)],
             low[:30] + [top | 3] + [rng.getrandbits(10) for _ in range(9)],
             low[30:530] + [top | 1] + [rng.getrandbits(10) for _ in range(199)]]
    g, phi = lintgrz(10), parse("~(p0 & p1 & p2)")
    arrays = {v: np.array(x, dtype=np.uint16) for v, x in enumerate(lists)}
    expected = next((tuple(enumerate(combo)), S._least_missing_world(ext, g.full))
                    for combo in iproduct(*lists)
                    if (ext := eval_formula(Model(g, dict(enumerate(combo))), phi))
                    != g.full)
    assert expected == (((0, top), (1, top | 3), (2, top | 1)), 9)
    assert _pair(S._search_refutation(g, S._plan(phi), arrays)) == expected
    extensions = S._search_refutation(g, S._plan(phi), arrays, collect=True)
    assert [int(x) for x in extensions] == sorted(
        {g.full ^ (a & b & c) for a, b, c in iproduct(*lists)})


def test_split_formulas_keep_the_exhaustive_budget_and_limit():
    bh, need = named_formula("bh", [4, 1]), (1 << 5) ** 4 * 5
    with pytest.raises(BudgetExceeded) as e:
        valid(lift(chain(5)), bh, budget=need - 1)
    assert e.value.needed == need
    assert valid(lift(chain(5)), bh, budget=need) is False
    assert S._plan(bh).split is not None
    with pytest.raises(FormatError, match="n <= 24"):
        valid(lift(chain(25)), named_formula("bh", [2, 1]))


# The verdict matrix: ``valid_each`` decides frames x formulas, one row per
# frame, and for each formula the Kripke frames of one world count whose
# spaces are one block in one walk with a leading frame axis.

def _general(f, gen):
    return GeneralFrame(f, generated_subalgebra(f, [gen & f.full]).elements)


def _union(g, h):
    """The disjoint union of two (general) frames; its algebra, when either
    is general, is every union of a set of each."""
    union = disjoint_union(kripke_of(g), kripke_of(h))
    if type(g) is Frame and type(h) is Frame:
        return union
    sets = [x.algebra if type(x) is GeneralFrame else full_algebra(x.n)
            for x in (g, h)]
    return GeneralFrame(union, tuple(a | b << g.n for a in sets[0] for b in sets[1]))


@st.composite
def _corpora(draw):
    """Frame lists mixing world counts, with several frames of a count: the
    empty frame, one-block frames, general frames and, for three variables,
    frames above one block (five worlds); then repeats of drawn frames and
    disjoint unions of two, whose parts are those of drawn frames."""
    plain = st.one_of(frames(min_n=0, max_n=3), frames(min_n=4, max_n=5))
    general = st.builds(_general, frames(max_n=4), st.integers(0, 15))
    drawn = draw(st.lists(st.one_of(plain, plain, general), min_size=1, max_size=12))
    some = st.sampled_from(drawn)
    shared = draw(st.lists(st.one_of(some, st.builds(_union, some, some)), max_size=6))
    return draw(st.permutations(drawn + shared))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_corpora(), st.lists(st.tuples(
    st.one_of(formulas(max_depth=3, max_vars=3, reach=True),
              formulas(max_depth=3, max_vars=0, reach=True),
              st.sampled_from(SPLIT_FORMULAS[:5])),
    st.booleans()), min_size=1, max_size=3))
def test_valid_each_is_valid_frame_by_frame(gs, drawn):
    # with the flag, three variables: five worlds are above one block
    fs = [_mentioning(phi, 3) if above else phi for phi, above in drawn]
    rows = valid_each(gs, fs, budget=1 << 22)
    assert rows == [tuple(valid(g, f, budget=1 << 22) for f in fs) for g in gs]
    for j, f in enumerate(fs):
        k = len(variables(f))
        for g, row in zip(gs, rows):
            if _space(g) ** k * g.n <= 1 << 11:
                assert row[j] is (oracle.least_witness(g, f) is None)


def test_valid_each_of_no_frames_or_no_formulas():
    gs = [lift(chain(2)), Frame(0, (), ()), rect(2, 2)]
    assert valid_each(gs, []) == [(), (), ()]
    assert valid_each([], [named_formula("com")]) == []
    assert valid_each([], []) == []


def test_batches_fill_one_block_with_one_world_count(monkeypatch):
    walked, batches = [], []
    walk, search = S._walk, S._search_refutation

    def spied_walk(order, leaves, full, pre, seed=()):
        ext = walk(order, leaves, full, pre, seed)
        walked.append(np.size(ext))
        return ext

    def spied_search(g, *args, **kwargs):
        if isinstance(g, list):
            batches.append(list(g))
        return search(g, *args, **kwargs)

    monkeypatch.setattr(S, "_walk", spied_walk)
    monkeypatch.setattr(S, "_search_refutation", spied_search)
    corpus = list(all_bimodal_frames(1)) + list(all_bimodal_frames(2)) + \
        [_random_frame(n, seed) for n in (3, 4, 5) for seed in range(60)] + \
        [Frame(0, (), ()), lift(chain(5)), _general(lift(chain(3)), 0b010),
         disjoint_union(lift(chain(2)), lift(cluster(3)))]
    for phi in (named_formula("com"), named_formula("rp", [1, "v"]),
                named_formula("presym"), named_formula("bh", [3, 1]),
                parse("p0 | ~p0"), ReachBox(Dia(1, Top()))):
        k = len(variables(phi))
        batches.clear()
        assert valid_each(corpus, [phi]) == [(valid(g, phi),) for g in corpus]
        assert all(len({h.n for h in b}) == 1 and len(b) << b[0].n * k <= S._BLOCK
                   for b in batches)
        # exactly the distinct Kripke parts with worlds and a one-block
        # space, each batched once
        parts = dict.fromkeys(p for g in corpus for p in S.check_size(g, phi))
        assert Counter(h for b in batches for h in b) == Counter(
            p for p in parts if k and type(p) is Frame and p.n
            and _space(p) ** k <= S._BLOCK)
        assert not k or max(map(len, batches)) > 1
    assert max(walked) <= S._BLOCK


def test_valid_each_searches_each_distinct_part_once(monkeypatch):
    alone, batched = [], []  # parts searched alone (not collecting), batched
    search = S._search_refutation

    def spied(g, *args, **kwargs):
        if isinstance(g, list):
            batched.extend(g)
        elif not kwargs.get("collect"):
            alone.append(g)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(S, "_search_refutation", spied)
    pres = [p for n in range(1, 4) for p in all_preorders(n)]
    products = [product(a, b) for a in pres for b in pres]
    presym = named_formula("presym")
    rows = valid_each(products, [presym], budget=1 << 23)
    assert len(products) == 169 and len(alone) == 25
    searched = alone + batched
    assert len(set(searched)) == len(searched)
    assert rows == [(valid(g, presym, budget=1 << 23),) for g in products]
    # a lone part is searched when a frame first needs it: the first two
    # frames stop at their refuted first part R, so the singleton, which
    # only the second needs, is never searched, and D3 is searched for the
    # third frame
    alone.clear()
    R = lift(chain(2))
    D2 = Frame(2, (0b01, 0b10), (0b11, 0b10))
    D3 = Frame(3, (0b001, 0b010, 0b100), (0b111, 0b010, 0b100))
    corpus = [as_general(disjoint_union(*parts)) for parts in
              ((R, D3), (R, D2, singleton()), (D2, D3))]
    phi = _mentioning(parse("p0 -> [1]p0"), 3)
    assert valid_each(corpus, [phi]) == [(False,), (False,), (True,)]
    assert [kripke_of(p) for p in alone] == [R, D2, D3]
    # a rooted frame's part is the frame itself, not an equal one
    F = rect(3, 3)
    assert S._maximal_parts(F) == [F]
    G = Frame(F.n, F.r1, F.r2)
    assert [p is G for p in S._maximal_parts(G)] == [True]


def test_valid_each_refuses_in_frame_order_before_any_search(monkeypatch):
    searched = []
    search = S._search_refutation
    monkeypatch.setattr(S, "_search_refutation", lambda g, *args, **kwargs:
                        searched.append(g) or search(g, *args, **kwargs))
    phi = named_formula("bh", [2, 1])
    for budget, needed in (((1 << 10) * 5 - 1, (1 << 10) * 5), (9, 32)):
        with pytest.raises(BudgetExceeded) as e:
            valid_each([lift(chain(2)), lift(chain(5)), lift(chain(6))], [phi],
                       budget=budget)
        assert e.value.needed == needed and searched == []
    with pytest.raises(FormatError, match="n <= 24"):
        valid_each([lift(chain(2)), lift(chain(25))], [phi], budget=1 << 60)
    assert searched == []
    # (frame 1, formula 2) needs 4^2 * 2 = 32 cells and (frame 2, formula 1)
    # 2^6 * 6 = 384, both over the budget: the frame-major loop meets the
    # first one first, a formula-major loop would meet the second
    box = parse("p0 -> [1]p0")
    with pytest.raises(BudgetExceeded) as e:
        valid_each([lift(chain(2)), lift(chain(6))], [box, phi], budget=31)
    assert e.value.needed == 32 and searched == []


# The orbit-restricted first axis: a lone search of a Kripke part above one
# block, for a formula with k >= 2 variables that does not split, lets its
# first variable range over the masks ``_kept_coordinates(part, 1)`` keeps.

def _spy_lone_searches(monkeypatch):
    """Record (part, plan, lists) of every lone search that is not
    collecting."""
    seen = []
    search = S._search_refutation

    def spied(g, plan, lists={}, collect=False):
        if not isinstance(g, list) and not collect:
            seen.append((g, plan, lists))
        return search(g, plan, lists, collect)

    monkeypatch.setattr(S, "_search_refutation", spied)
    return seen


# (frame, formulas it refutes, formulas it validates), each above one block
# on the frame.  The last refuted one's least witness makes every variable
# empty, a mask that every automorphism fixes; on rect(3, 3), where every
# world reaches every world, it is the only refutation
_SYMMETRIC = [
    (rect(3, 3),
     ("p0 & p1 -> [1](p0 & p1) & [2](p0 & p1)", "<1>p0 & <1>p1 -> <1>(p0 & p1)",
      "p0 -> [1](p1 -> <2>p0)", "<*>p0 | <*>(p1 & ~p0)"),
     ("p0 & p1 -> <1>(p0 & p1)",)),
    (product(cluster(3), chain(3)),
     ("p0 & p1 -> [1](p0 & p1) & [2](p0 & p1)", "<1>p0 & <1>p1 -> <1>(p0 & p1)",
      "p0 -> [1](p1 -> <2>p0)", "<*>p0 | <*>(p1 & ~p0)"),
     ("p0 & <2>p1 -> <1>(p0 | p1)",)),
    (tack("both", 2),
     ("p0 & p1 & p2 -> [1](p0 | <2>p2)", "<*>p0 | <*>(p1 & ~p0) | <*>(p2 & ~p0)"),
     ("<1>(p0 & p1) & <2>(p1 & p2) -> <1><2>p0",
      "p0 & p1 & p2 -> <2>(p2 & p1 & p0)")),
    # three worlds are one block up to four variables
    (lift(cluster(3)),
     ("p0 & p1 & p2 & p3 & p4 -> <1>(p0 & ~p1)", "<*>p0 | <*>(~p0 & p1 & p2 & p3 & p4)"),
     ("p0 & p1 & p2 & p3 & p4 -> <2>(p1 & p0)",)),
]


@pytest.mark.parametrize("F, refuted, held", _SYMMETRIC)
def test_orbit_restriction_keeps_every_verdict(monkeypatch, F, refuted, held):
    searches = _spy_lone_searches(monkeypatch)
    kept = _kept_coordinates(F, 1).tolist()
    assert len(kept) < 1 << F.n
    texts = refuted + held
    phis = [parse(text) for text in texts]
    for phi, verdict in zip(phis, [False] * len(refuted) + [True] * len(held)):
        plan = S._plan(phi)
        assert len(plan.occurring) >= 2 and plan.split is None
        assert _space(F) ** len(plan.occurring) > S._BLOCK
        searches.clear()
        assert valid(F, phi, budget=1 << 22) is verdict, phi
        # the one search ran with the first variable over the kept masks
        [(part, _, lists)] = searches
        assert part is F and list(lists) == [plan.occurring[0]]
        assert lists[plan.occurring[0]].tolist() == kept
        assert lists[plan.occurring[0]].dtype == S._cell_dtype(F.n)
        # the oracle searches every valuation; a 9-world valid formula takes
        # it seconds, so there the exhaustive library search stands in
        if verdict and F.n == 9:
            assert refutes_witness(F, phi, budget=1 << 22) is None
        else:
            assert verdict is (oracle.least_witness(F, phi) is None), phi
    verdicts = tuple(text not in refuted for text in texts)
    assert valid_each([F, F], phis, budget=1 << 22) == [verdicts, verdicts]


def test_one_block_and_one_variable_searches_are_not_restricted(monkeypatch):
    searches = _spy_lone_searches(monkeypatch)
    # lift(cluster(3)) at k = 3 is one block, and one variable on 17 worlds
    # is above one block but keeps its whole axis
    for F, text, verdict in ((lift(cluster(3)), "p0 & p1 & p2 -> <1>(p0 & ~p1)", False),
                             (lift(cluster(17)), "p0 -> [1]p0", False),
                             (lift(cluster(17)), "p0 -> <1>p0", True)):
        searches.clear()
        assert valid(F, parse(text), budget=1 << 23) is verdict
        assert [lists for _, _, lists in searches] == [{}]


def test_refutes_witness_stays_exhaustive():
    # the least witness's first mask {8} is not the least of its orbit,
    # {0}, which is the one kept: refutes_witness still finds it
    F, phi = rect(3, 3), parse("p0 & p1 -> [1](p0 & p1) & [2](p0 & p1)")
    w = refutes_witness(F, phi, budget=1 << 22)
    assert (w.valuation, w.world) == oracle.least_witness(F, phi) == \
        (((0, 256), (1, 256)), 8)
    kept = _kept_coordinates(F, 1).tolist()
    assert 256 not in kept and 1 in kept
    assert valid(F, phi, budget=1 << 22) is False


def test_general_frames_are_not_restricted(monkeypatch):
    # lift(cluster(4)) with the algebra of the atoms {0, 1}, {2} and {3}:
    # the swap of worlds 1 and 2 is an automorphism of the frame that maps
    # {0, 1} out of the algebra.  Three atoms realise at most three of the
    # four (p0, p1) types, so the formula holds on the general frame and
    # fails on the frame, where p0 = {0, 2} and p1 = {0, 1} realise all four
    F = lift(cluster(4))
    G = GeneralFrame(F, (0, 0b0011, 0b0100, 0b1000, 0b0111, 0b1011, 0b1100, 0b1111))
    assert any(pull(a, g) not in G.algebra
               for g in automorphism_generators((F.r1, F.r2), F.n) for a in G.algebra)
    phi = parse("~(<1>(p0 & p1) & <1>(p0 & ~p1) & <1>(~p0 & p1) & <1>(~p0 & ~p1)) "
                "| (p0 & p2 & p3 & p4 & ~p0)")
    plan = S._plan(phi)
    assert len(plan.occurring) == 5 and plan.split is None
    assert len(G.algebra) ** 5 > S._BLOCK
    searches = _spy_lone_searches(monkeypatch)
    assert valid(G, phi) is (oracle.least_witness(G, phi) is None) is True
    assert valid_each([G], [phi]) == [(True,)]
    assert [lists for _, _, lists in searches] == [{}, {}]
    # the frame itself is restricted, and refuted with a kept first mask
    searches.clear()
    assert valid(F, phi, budget=1 << 22) is False
    [(_, _, lists)] = searches
    assert 0b0101 in lists[0].tolist()


def test_c4_walks_the_kept_first_masks_of_its_lone_parts(monkeypatch):
    # C4's 169 products search 25 nine-world parts alone, at k = 2: their
    # first variable walks 4,591 masks of 25 x 512
    walked, walk = [], S._walk

    def spied(order, leaves, full, pre, seed=()):
        if not seed and full == 511:
            walked.append(np.size(leaves[0]))
        return walk(order, leaves, full, pre, seed)

    monkeypatch.setattr(S, "_walk", spied)
    searches = _spy_lone_searches(monkeypatch)
    pres = [p for n in range(1, 4) for p in all_preorders(n)]
    presym = named_formula("presym")
    assert S._plan(presym).occurring == [0, 1]
    rows = valid_each([product(a, b) for a in pres for b in pres], [presym],
                      budget=1 << 23)
    assert rows == [(True,)] * 169 and len(searches) == 25
    assert sum(walked) == 4591 == sum(len(_kept_coordinates(part, 1))
                                      for part, _, _ in searches)
    assert {part.n for part, _, _ in searches} == {9}


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "uint32", "uint64", object])
def test_distinct_is_np_unique(dtype):
    # five values from 0 to the largest the dtype holds, so larger arrays repeat some
    top = (1 << 70) if dtype is object else np.iinfo(dtype).max
    pool, rng = [top, 0, 1, top // 3, top - 1], random.Random(str(dtype))
    for shape in ((0,), (1,), (7,), (5, 1, 3), (40, 6)):
        values = [rng.choice(pool) for _ in range(int(np.prod(shape)))]
        a = np.array(values, dtype=dtype).reshape(shape)
        got, want = S._distinct(a), np.unique(a)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

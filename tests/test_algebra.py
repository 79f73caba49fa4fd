from itertools import product as iproduct
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kripkebench.algebra import (SetAlgebra, _definers, _reachability,
                                 _sort_columns, _sorting_network, beta_formula,
                                 block_system, free_algebra_count,
                                 generated_subalgebra, naive_free_algebra_count)
from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       product, rect, singleton, tack,
                                       univ_chain)
import kripkebench.enumeration as enumeration
from kripkebench.enumeration import (_kept_coordinates, _packed_ranks,
                                     random_frame, random_preorder,
                                     random_valuation)
from kripkebench.errors import (BudgetExceeded, CapExceeded, FormatError,
                                NotDefinable, NotPretransitive, size_text)
from kripkebench.formulas import Top
from kripkebench.frames import Frame, preimage, pull, pull_rows, worlds_of
from kripkebench.morphisms import blow_up
from kripkebench.semantics import Model, eval_formula

from conftest import as_general, disjoint_union, frames
from oracle import (atoms_of, automorphisms, block_tree,
                    free_count_by_refinement, reference_beta_formula)


def naive_closure(frame, gens):
    """Independent re-closure oracle for generated_subalgebra."""
    sets = {0, frame.full} | set(gens)
    while True:
        new = set()
        for u in sets:
            new.add(frame.full ^ u)
            new.add(preimage(frame.r1, u))
            new.add(preimage(frame.r2, u))
            for v in sets:
                new.add(u & v)
        if new <= sets:
            return sets
        sets |= new


def test_generated_subalgebra_examples():
    assert len(generated_subalgebra(singleton(), []).elements) == 2
    assert len(generated_subalgebra(univ_chain(2), [0b01]).elements) == 4
    alg = generated_subalgebra(rect(2, 2), [0b0011])  # one row
    assert set(alg.elements) == naive_closure(rect(2, 2), [0b0011])
    assert 0b0011 in alg.elements


def test_generated_subalgebra_reads_generators_as_world_sets():
    # the bitstring 100 is world 0: with no edges, {0} and {2} generate
    # different algebras
    edgeless = Frame(3, (0,) * 3, (0,) * 3)
    alg = generated_subalgebra(edgeless, ["100"])
    assert 0b001 in alg.elements and 0b100 not in alg.elements
    assert alg == generated_subalgebra(edgeless, [0b001])
    # a generator that is no world-set fails
    f = lift(chain(2))
    for gen in ("011", "2", True, 1.0, -1, 0b100):
        with pytest.raises(FormatError):
            generated_subalgebra(f, [gen])


def test_generated_subalgebra_cap():
    with pytest.raises(CapExceeded) as e:
        generated_subalgebra(rect(2, 2), [0b0001, 0b0110], cap=3)
    assert e.value.last_size == 16


@settings(max_examples=50, deadline=None, derandomize=True)
@given(frames(max_n=4), st.lists(st.integers(0, 15), max_size=2))
def test_generated_subalgebra_matches_naive_closure(f, gens):
    gens = [g & f.full for g in gens]
    alg = generated_subalgebra(f, gens)
    assert set(alg.elements) == naive_closure(f, gens)


def test_free_algebra_count_examples():
    assert free_algebra_count([singleton()], 0) == 2
    assert free_algebra_count([singleton()], 1) == 4
    assert naive_free_algebra_count([singleton()], 0) == 2
    assert naive_free_algebra_count([singleton()], 1) == 4
    counts = [free_algebra_count([tack("both", m)], 1, cap=1 << 200)
              for m in (1, 2, 3)]
    assert counts[0] < counts[1] < counts[2]


@pytest.mark.parametrize("k", [-1, 1.0, "1", True, None])
def test_free_algebra_count_k_is_a_nonnegative_int(k):
    with pytest.raises(FormatError, match="k must be a nonnegative int"):
        free_algebra_count([singleton()], k)


def test_free_algebra_count_against_naive_oracle():
    cases = [([singleton()], 0), ([singleton()], 1),
             ([lift(chain(2))], 1), ([lift(cluster(2))], 1),
             ([singleton(), lift(chain(2))], 1), ([lintgrz(2)], 1)]
    for fs, k in cases:
        assert free_algebra_count(fs, k) == naive_free_algebra_count(fs, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(
    st.tuples(st.lists(frames(min_n=0, max_n=3), max_size=3), st.integers(0, 1)),
    st.tuples(st.lists(frames(min_n=0, max_n=2), max_size=3), st.integers(0, 2))))
def test_free_algebra_count_matches_oracles_on_frame_lists(case):
    fs, k = case
    try:
        expected = naive_free_algebra_count(fs, k, cap=256)
    except CapExceeded:
        expected = free_count_by_refinement(fs, k)
    assert free_algebra_count(fs, k, cap=1 << 100) == expected
    # one type space for all frames: a repeated frame adds no atom
    assert free_algebra_count(fs + fs, k, cap=1 << 100) == expected


def test_free_algebra_count_without_worlds():
    empty = Frame(0, (), ())
    for k in (0, 1, 2):
        assert free_algebra_count([], k) == 1
        assert free_algebra_count([empty], k) == 1
    assert free_algebra_count([empty, singleton()], 1) == 4


def test_free_algebra_count_past_the_naive_cap():
    for fs, k in (([tack("both", 2)], 2), ([tack("1", 2), rect(2, 2)], 2),
                  ([rect(3, 3)], 1)):
        assert free_algebra_count(fs, k, cap=1 << 4096) == \
            free_count_by_refinement(fs, k)


def test_free_algebra_count_on_empty_universal_and_mixed_widths():
    # no successors at all (no set rows), every world a successor of every
    # world (rows without padding), and frames of different out-degrees
    # sharing one type space
    def uniform(n, row1, row2):
        return Frame(n, (row1,) * n, (row2,) * n)
    empty, universal = uniform(3, 0, 0), uniform(3, 0b111, 0b111)
    half = uniform(2, 0, 0b11)
    cases = [([empty], 2), ([universal], 2), ([half], 2),
             ([Frame(4, (0,) * 4, (0,) * 4)], 1), ([uniform(4, 15, 15)], 1),
             ([empty, universal, half], 1), ([universal, tack("both", 1)], 2),
             ([half, singleton(), lift(chain(3)), tack("1", 2)], 1)]
    for fs, k in cases:
        assert free_algebra_count(fs, k, cap=1 << 4096) == \
            free_count_by_refinement(fs, k), (fs, k)


@pytest.mark.parametrize("width", range(1, 18))
def test_sorting_network_sorts_like_sorted(width):
    # every 0/1 column (which proves the network by the 0-1 principle) and
    # random columns with repeats
    bits = np.array(list(iproduct((0, 1), repeat=width)), np.int32).T
    rng = Random(width)
    ints = np.array([[rng.randrange(4) for _ in range(width)]
                     for _ in range(200)], np.int32).T
    for a in (bits, ints):
        expected = [sorted(column) for column in a.T.tolist()]
        _sort_columns(a)
        assert a.T.tolist() == expected
    assert all(i < j < width for i, j in _sorting_network(width))


@pytest.mark.parametrize("base", [2, 5, 1 << 32, 1 << 61])
def test_packed_ranks_are_the_ranks_of_the_tuples(base):
    # at base 2^32, (1, 0, 0, 0) packs to 2^96, which wraps onto (0, 0, 0, 0)
    # in int64; at base 2^61 even a ranked key times the base passes 2^62
    rng = Random(base)
    values = [0, 1, base - 1, base // 2]
    tuples = [(1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (base - 1,) * 4]
    tuples += [tuple(rng.choice(values) for _ in range(4)) for _ in range(60)]
    rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
    columns = [np.array(column, np.int64) for column in zip(*tuples)]
    ids, count = _packed_ranks(columns[0], columns[1:], base)
    assert ids.tolist() == [rank[t] for t in tuples]
    assert count == len(rank)


def relabelled(f, perm):
    return Frame(f.n, pull_rows(f.r1, perm), pull_rows(f.r2, perm))


@st.composite
def symmetric_cases(draw):
    """Frames with many automorphisms and a k >= 1 with at most 9
    valuation bits per frame: relabelled products of clusters and chains,
    relabelled blow-ups of small frames into bisimilar copies, and two
    copies of a frame side by side, relabelled and listed twice."""
    kind = draw(st.sampled_from(("product", "blow_up", "repeated")))
    if kind == "product":
        a, b = draw(st.sampled_from(((1, 3), (2, 2), (2, 3), (3, 2), (3, 3))))
        f = product(draw(st.sampled_from((cluster, chain)))(a),
                    draw(st.sampled_from((cluster, chain)))(b))
        fs = [f]
    elif kind == "blow_up":
        h = draw(frames(max_n=3))
        sizes = draw(st.lists(st.integers(1, 3), min_size=h.n, max_size=h.n)
                     .filter(lambda s: 1 < max(s) and sum(s) <= 6))
        fs = [blow_up(h, tuple(sizes))[0]]
    else:
        f = draw(frames(max_n=3))
        fs = [disjoint_union(f, f)] * 2
    fs = [relabelled(f, draw(st.permutations(range(f.n)))) for f in fs]
    n = max(f.n for f in fs)
    return fs, draw(st.integers(1, min(2, max(1, 8 // n))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(symmetric_cases())
def test_free_algebra_count_matches_the_oracle_on_symmetric_frames(case):
    fs, k = case
    assert free_algebra_count(fs, k, cap=1 << 4096) == \
        free_count_by_refinement(fs, k)


def coordinate_image(c, g, n, k):
    """Coordinate c's valuation, each mask pulled back along g."""
    masks = [c >> n * (k - 1 - i) & (1 << n) - 1 for i in range(k)]
    return sum(pull(m, g) << n * (k - 1 - i) for i, m in enumerate(masks))


@pytest.mark.parametrize("f, k", [(tack("both", 2), 2), (rect(2, 3), 1),
                                  (lift(cluster(3)), 2), (rect(3, 3), 1),
                                  (product(cluster(3), chain(3)), 1)])
def test_kept_coordinates_hold_each_orbit_least(f, k):
    # every automorphism orbit of valuations keeps its least coordinate,
    # and the kept coordinates are fewer than all of them
    kept = set(_kept_coordinates(f, k).tolist())
    autos = automorphisms(f)
    total = 1 << f.n * k
    for c in range(total):
        assert min(coordinate_image(c, g, f.n, k) for g in autos) in kept
    assert len(kept) < total


def test_kept_coordinates_skip_a_map_that_is_no_automorphism(monkeypatch):
    # swapping worlds 0 and 1 of rect(3, 3) alone moves them across columns;
    # fed in as a generator it must be skipped, or it would drop {1, 3}, the
    # least mask of its orbit (two worlds in different rows and columns), for
    # {0, 3}, which is in another orbit (two worlds in one column)
    f = rect(3, 3)
    kept = _kept_coordinates(f, 1).tolist()
    assert 0b1010 in kept
    generators = enumeration.automorphism_generators
    monkeypatch.setattr(enumeration, "automorphism_generators",
                        lambda relations, n: generators(relations, n) +
                        [(1, 0) + tuple(range(2, n))])
    assert _kept_coordinates(f, 1).tolist() == kept


@pytest.mark.parametrize("fs, k, atoms", [
    ([tack("both", 2)], 3, 32768),
    ([rect(3, 4)], 1, 146),
    ([tack("both", 3)], 1, 176),
    ([tack("1", 3)], 1, 176),
    ([tack("2", 3)], 1, 176),
    ([tack("both", 4)], 1, 712),
])
def test_free_algebra_count_pinned_large(fs, k, atoms):
    assert free_algebra_count(fs, k, cap=1 << 40000) == 1 << atoms


def test_free_algebra_count_monotone():
    base = [lift(chain(2))]
    assert free_algebra_count(base, 0) <= free_algebra_count(base, 1)
    assert free_algebra_count(base, 1) <= \
        free_algebra_count(base + [lift(cluster(2))], 1)


def test_free_algebra_count_guards():
    with pytest.raises(BudgetExceeded):
        free_algebra_count([rect(3, 3)], 3, budget=1 << 10)
    with pytest.raises(CapExceeded) as e:
        free_algebra_count([tack("both", 2)], 1, cap=100)
    assert e.value.last_size == 1 << 32


def test_free_algebra_count_budget_counts_every_coordinate():
    # the budget reads the exhaustive coordinate count, not the kept one
    with pytest.raises(BudgetExceeded) as e:
        free_algebra_count([tack("both", 4), rect(3, 4)], 1, budget=1000)
    assert e.value.needed == (1 << 17) + (1 << 12)


def test_free_algebra_count_cap_past_decimal_conversion():
    # 2^32768 has 9865 decimal digits, past what Python writes in decimal
    with pytest.raises(CapExceeded) as e:
        free_algebra_count([tack("both", 2)], 3)
    assert e.value.last_size == 1 << 32768
    assert str(e.value) == "size 2^32768 exceeds cap 1000000"
    assert [size_text(x) for x in ((1 << 64) - 1, 1 << 64, 3 << 40000)] == \
        ["18446744073709551615", "2^64", hex(3 << 40000)]


def test_block_system_examples():
    bs = block_system(Model(lift(chain(2)), {0: 0}))
    assert bs.layers == ((0b11,),)
    assert bs.stabilization == 0

    bs = block_system(Model(lift(chain(2)), {0: 0b10}))
    assert bs.stabilization == 1
    assert bs.stabilized == (0b01, 0b10)
    assert bs.layers[0] == (0b11,)

    bs = block_system(Model(lift(chain(2)), {0: 0b10}), max_layers=0)
    assert bs.layers == ((0b11,),) and bs.stabilization is None


@pytest.mark.parametrize("max_layers", [-1, 1.5, 1.0, True, False, "1"])
def test_block_system_max_layers_is_none_or_a_nonnegative_int(max_layers):
    with pytest.raises(FormatError):
        block_system(Model(lift(chain(2)), {0: 0b10}), max_layers)


@pytest.mark.parametrize("model, expected", [
    # stabilises at layer 1
    (Model(lift(chain(2)), {0: 0b10}),
     [(((0b11,),), None),
      (((0b11,), (0b01, 0b10)), None),
      (((0b11,), (0b01, 0b10)), 1),
      (((0b11,), (0b01, 0b10)), 1)]),
    # stabilises at layer 2: layer 1 cannot see the dead end
    (Model(Frame(2, (0b10, 0b00), (0b00, 0b00)), {}),
     [(((0b11,),), None),
      (((0b11,), (0b11,)), None),
      (((0b11,), (0b11,), (0b01, 0b10)), None),
      (((0b11,), (0b11,), (0b01, 0b10)), 2)]),
])
def test_block_system_max_layers(model, expected):
    for k, (layers, stabilization) in enumerate(expected):
        bs = block_system(model, max_layers=k)
        assert (bs.layers, bs.stabilization) == (layers, stabilization), k


def test_block_layer_one_ignores_successors():
    # depth-0 formulas cannot see successors: a dead-end world separates from
    # a live one only at layer 2
    F = Frame(2, (0b10, 0b00), (0b00, 0b00))
    bs = block_system(Model(F, {}))
    assert bs.layers[1] == (0b11,)
    assert bs.stabilized == (0b01, 0b10)
    assert bs.stabilization == 2


def test_beta_on_irreflexive_dead_end_models():
    F = Frame(2, (0b10, 0b00), (0b01, 0b00))
    m = Model(F, {})
    for r in (0, 1):
        cert = beta_formula(m, r)
        assert eval_formula(m, cert.beta) == 1 << r
    F3 = Frame(3, (0b010, 0b100, 0b000), (0b001, 0b000, 0b100))
    m3 = Model(F3, {0: 0b001})
    for r in range(3):
        cert = beta_formula(m3, r)
        assert eval_formula(m3, cert.beta) == 1 << r


def test_block_tree():
    bs = block_system(Model(univ_chain(3), {0: 0b001, 1: 0b010}))
    assert bs.stabilized == (0b001, 0b010, 0b100)
    tree, least = block_tree(bs.layers)
    root = 0b111
    assert set(tree[root]) == {0b001, 0b010, 0b100}
    assert least[root] == 0
    for b in (0b001, 0b010, 0b100):
        assert least[b] == 1


def coarsest_bisimulation(frame, valuation):
    """Independent oracle: refine pairs until stable."""
    n = frame.n
    def same_profile(a, b):
        return all((mask >> a & 1) == (mask >> b & 1)
                   for mask in valuation.values())
    related = {(a, b) for a in range(n) for b in range(n) if same_profile(a, b)}
    changed = True
    while changed:
        changed = False
        for (a, b) in sorted(related):
            ok = True
            for rows in (frame.r1, frame.r2):
                for x in worlds_of(rows[a]):
                    if not any((x, y) in related for y in worlds_of(rows[b])):
                        ok = False
                if ok:
                    for y in worlds_of(rows[b]):
                        if not any((x, y) in related for x in worlds_of(rows[a])):
                            ok = False
            if not ok:
                related.discard((a, b))
                related.discard((b, a))
                changed = True
    blocks = []
    seen = set()
    for a in range(n):
        if a in seen:
            continue
        members = {b for b in range(n) if (a, b) in related}
        seen |= members
        blocks.append(sum(1 << b for b in members))
    return tuple(sorted(blocks, key=lambda m: (m & -m).bit_length()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frames(max_n=5))
def test_block_layer_invariants(f):
    val = {0: 0b10101 & f.full}
    bs = block_system(Model(f, val))
    assert bs.layers[0] == (f.full,)
    for earlier, later in zip(bs.layers, bs.layers[1:]):
        # each later block sits inside one earlier block
        for b in later:
            assert sum(1 for p in earlier if b & ~p == 0) == 1
        # and the later layer partitions the worlds
        assert sum(b.bit_count() for b in later) == f.n
    for block, children in block_tree(bs.layers)[0].items():
        for c in children:
            assert c & ~block == 0 and c != block
        # a block that splits splits into blocks of one layer
        assert not children or sum(children) == block


def test_blocks_equal_bisimulation_and_atoms():
    rng = Random(1729)
    for _ in range(50):
        n = rng.randint(1, 5)
        F = random_frame(rng, n)
        val = random_valuation(rng, n, rng.randint(0, 2))
        bs = block_system(Model(F, val))
        assert bs.stabilized == coarsest_bisimulation(F, val)
        alg = generated_subalgebra(F, list(val.values()))
        assert set(bs.stabilized) == set(atoms_of(alg))


def test_beta_examples():
    m = Model(lift(chain(2)), {0: 0b10})
    cert = beta_formula(m, 0)
    assert eval_formula(m, cert.beta) == 0b01
    assert cert.depth == cert.beta.depth

    m2 = Model(rect(2, 2), {0: 0b0001})
    for r in range(4):
        cert = beta_formula(m2, r)
        assert eval_formula(m2, cert.beta) == 1 << r

    with pytest.raises(NotDefinable):
        beta_formula(Model(rect(2, 2), {0: 0}), 1)
    for r in (4, 10 ** 5000):  # the second has more digits than str() writes
        with pytest.raises(FormatError, match="^world .* out of range$"):
            beta_formula(Model(rect(2, 2), {0: 0}), r)


def test_beta_alpha_defines_each_point():
    m = Model(tack("both", 2), {0: 0b00001})
    cert = beta_formula(m, 4)
    sub_worlds = sorted(cert.alpha)
    for w, alpha in cert.alpha.items():
        ext = eval_formula(m, alpha)
        # alpha defines its point within the generated submodel
        assert ext >> w & 1
        for other in sub_worlds:
            if other != w:
                assert not ext >> other & 1


def test_beta_not_pretransitive():
    cover4 = Frame(4, (0b0010, 0b0100, 0b1000, 0b0000), (0, 0, 0, 0))
    with pytest.raises(NotPretransitive):
        beta_formula(Model(cover4, {}), 0)


def test_beta_rejects_outside_duplicates():
    # two isolated reflexive points with identical valuations are modally
    # indistinguishable: the generated subframe looks fine but the source
    # model refutes definability
    F = Frame(2, (0b01, 0b10), (0b01, 0b10))
    with pytest.raises(NotDefinable):
        beta_formula(Model(F, {}), 0)


def outcome(beta, m, r):
    """Every certificate field, or the error's kind, message and world."""
    try:
        cert = beta(m, r)
    except (NotDefinable, NotPretransitive) as e:
        return type(e), str(e), getattr(e, "world", None)
    return cert.world, cert.alpha, cert.gamma, cert.beta, cert.depth, cert.transcript


def assert_same_certificate(m, r):
    got, want = outcome(beta_formula, m, r), outcome(reference_beta_formula, m, r)
    assert got == want, (m, r)
    if len(want) == 6:
        assert type(got[0]) is int
        assert got[2] is want[2] and got[3] is want[3]   # interned: one node each


def relabelled_codings():
    """Models on relabelled frames with seeded valuations of one or two
    variables: rect(2,3), lifted random preorders and tack(both,2)."""
    rng = Random(2718)
    bases = [rect(2, 3)] * 4 + [lift(random_preorder(rng, n)) for n in (3, 4, 4, 5)]
    bases += [tack("both", 2)] * 3
    models = []
    for f in bases:
        perm = rng.sample(range(f.n), f.n)
        g = relabelled(f, perm)
        models.append(Model(g, random_valuation(rng, g.n, rng.randint(1, 2))))
    return models


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
def test_beta_matches_the_uncached_oracle(order):
    _definers.cache_clear()
    _reachability.cache_clear()
    models = relabelled_codings()
    if order == "ascending":
        calls = [(m, r) for m in models for r in range(m.kripke.n)]
    elif order == "descending":
        calls = [(m, r) for m in reversed(models) for r in reversed(range(m.kripke.n))]
    else:
        calls = [(m, r) for r in range(max(m.kripke.n for m in models))
                 for m in models if r < m.kripke.n]
    defined = 0
    for m, r in calls:
        assert_same_certificate(m, r)
        defined += len(outcome(beta_formula, m, r)) == 6
    assert 0 < defined < len(calls)


def test_beta_cache_keys():
    # two valuations on one frame
    f = rect(2, 2)
    for val in ({0: 0b0001}, {0: 0b0010}, {0: 0b0001}):
        for r in range(f.n):
            assert_same_certificate(Model(f, val), r)
    # {0: 0} and {} differ in their literals only
    f = Frame(3, (0b010, 0b100, 0b000), (0b001, 0b000, 0b100))
    assert beta_formula(Model(f, {}), 0).alpha != beta_formula(Model(f, {0: 0}), 0).alpha
    for val in ({}, {0: 0}, {}):
        for r in range(f.n):
            assert_same_certificate(Model(f, val), r)
    f = tack("both", 2)
    for m in (Model(f, {0: 0b00001}), Model(as_general(f), {0: 0b00001})):
        for r in range(f.n):
            assert_same_certificate(m, r)
    # world 1 generates a proper subframe, {1, 2}, of world 0's
    m = Model(lift(chain(3)), {0: 0b010, 1: 0b100})
    assert len(beta_formula(m, 1).alpha) == 2 and len(beta_formula(m, 0).alpha) == 3
    for r in (0, 1, 2, 1, 0):
        assert_same_certificate(m, r)


def test_beta_errors_repeat():
    cover4 = Frame(4, (0b0010, 0b0100, 0b1000, 0b0000), (0, 0, 0, 0))
    twins = Frame(2, (0b01, 0b10), (0b01, 0b10))
    for m, r, error in ((Model(cover4, {}), 0, NotPretransitive),
                        (Model(rect(2, 2), {0: 0}), 1, NotDefinable),
                        (Model(twins, {}), 0, NotDefinable)):
        first = outcome(beta_formula, m, r)
        assert first[0] is error
        assert outcome(beta_formula, m, r) == first == outcome(reference_beta_formula, m, r)


def test_beta_certificate_is_not_shared():
    m = Model(rect(2, 2), {0: 0b0001})
    cert = beta_formula(m, 0)
    cert.alpha.clear()
    beta_formula(m, 1).alpha[0] = Top()
    assert_same_certificate(m, 0)
    assert_same_certificate(m, 1)


@pytest.mark.parametrize("r", [True, False, 1.0, "1", None])
def test_beta_world_is_an_int(r):
    with pytest.raises(FormatError):
        beta_formula(Model(rect(2, 2), {0: 0b0001}), r)


def test_set_algebra_type():
    alg = generated_subalgebra(lift(chain(2)), [0b10])
    assert isinstance(alg, SetAlgebra)
    assert alg.elements[0] == 0 and alg.elements[-1]
    assert len(atoms_of(alg)) == 2

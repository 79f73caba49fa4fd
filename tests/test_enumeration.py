import hashlib
from functools import lru_cache
from itertools import permutations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kripkebench.constructions import (chain, cluster, lift, product, rect,
                                      tack)
from kripkebench import enumeration
from kripkebench.enumeration import (_adjacency, _equitable, _keys,
                                     _packed_ranks, _poset_group, _posets,
                                     all_bimodal_frames, all_preorders,
                                     automorphism_generators, canonical_key,
                                     iso_distinct, linear_preorders,
                                     random_frame, random_preorder)
from kripkebench.frames import (Frame, UniFrame, fibers, frame_property, pull,
                                pull_rows, rt_closure)

from conftest import disjoint_union, frames
from oracle import (automorphisms, keyed_preorders, permutation_key,
                    recursive_posets)


def relabel(rows, perm):
    """Rows of the relation carried along ``perm`` (old world -> new world),
    written out bit by bit."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 9), (4, 33),
                                      (5, 139), (6, 718), (7, 4535)])
def test_preorder_counts(n, count):
    # OEIS A001930: preorders on n points up to isomorphism
    preorders = all_preorders(n)
    assert len(preorders) == count
    for u in preorders:
        assert frame_property(Frame(n, u.rows, u.rows), "preorder", (1,))


@pytest.mark.parametrize("k, count", [(0, 1), (1, 1), (2, 2), (3, 5),
                                      (4, 16), (5, 63), (7, 2045)])
def test_poset_counts(k, count):
    # OEIS A000112: posets on k points up to isomorphism
    posets = _posets(k)
    assert len(posets) == count
    for rows in posets:
        assert frame_property(Frame(k, rows, rows), "poset", (1,))
        # the identity is a linear extension
        assert all(rows[i] >> j & 1 == 0 for i in range(k) for j in range(i))


@pytest.mark.parametrize("k", range(7))
def test_posets_match_the_recursive_oracle(k):
    # the same tuple in the same order as growing every labelled prefix
    assert _posets(k) == recursive_posets(k)


@pytest.mark.parametrize("k", range(7))
def test_poset_group_is_every_automorphism_but_the_identity(k):
    # the enumeration keeps the least candidate of each orbit of this group,
    # so it must be the whole group
    for rows in _posets(k):
        expected = automorphisms(Frame(k, rows, rows)) - {tuple(range(k))}
        assert set(_poset_group(rows)) == expected
        assert len(_poset_group(rows)) == len(expected)


def test_poset_group_refuses_a_map_that_is_no_automorphism(monkeypatch):
    # a chain is rigid: a generator that swaps its two points is a bug
    monkeypatch.setattr(enumeration, "automorphism_generators",
                        lambda relations, n: [(1, 0)])
    with pytest.raises(RuntimeError, match="not an automorphism"):
        _poset_group.__wrapped__((0b11, 0b10))


@pytest.mark.parametrize("n", range(1, 6))
def test_preorders_match_the_keyed_oracle(n):
    # the same representatives in the same order as keying every
    # (poset, composition) pair and keeping the first of each class
    assert tuple(u.rows for u in all_preorders(n)) == keyed_preorders(n)


def test_preorders_are_decided_without_keys(monkeypatch):
    # with the poset tables built, the poset groups decide which
    # compositions to keep, and no preorder is keyed
    for k in range(6):
        _posets(k)
    calls = []
    key = enumeration.canonical_key
    monkeypatch.setattr(enumeration, "canonical_key",
                        lambda *args: calls.append(args) or key(*args))
    assert all_preorders.__wrapped__(5) == all_preorders(5)
    assert calls == []


def enumeration_tables() -> str:
    """The posets, preorders, chains of clusters and bimodal frames of every
    enumerated size, and the first frame of each class in a seeded corpus of
    relabelled frames, some with one bit flipped."""
    rng = Random(19)
    bases = [random_frame(rng, rng.randint(1, 5)) for _ in range(60)]
    bases += [lift(random_preorder(rng, rng.randint(2, 7))) for _ in range(60)]
    corpus = []
    for f in bases:
        for _ in range(3):
            r1, r2 = list(f.r1), list(f.r2)
            if rng.random() < 0.3:
                r1[rng.randrange(f.n)] ^= 1 << rng.randrange(f.n)
            perm = rng.sample(range(f.n), f.n)
            corpus.append(Frame(f.n, relabel(r1, perm), relabel(r2, perm)))
    rng.shuffle(corpus)
    kept = iso_distinct(corpus)
    return repr((
        [_posets(k) for k in range(8)],
        [[u.rows for u in all_preorders(n)] for n in range(1, 8)],
        [[u.rows for u in linear_preorders(n)] for n in range(1, 8)],
        [[(f.r1, f.r2) for f in all_bimodal_frames(n)] for n in (1, 2)],
        [next(i for i, g in enumerate(corpus) if g is f) for f in kept],
    ))


def test_enumeration_tables_are_pinned():
    # These tables depend on canonical keys only through their equality,
    # so a new key must leave them as they were, order and representatives
    # included.
    digest = hashlib.sha256(enumeration_tables().encode()).hexdigest()
    assert digest == "6a4b250c16476ee51da1c8163354176f02567d035a210b39031f09a54b183e15"


def test_linear_preorder_and_bimodal_counts():
    for n in range(1, 7):
        chains = linear_preorders(n)
        assert len(chains) == 2 ** (n - 1)
        assert all(frame_property(Frame(n, u.rows, u.rows), "linear", (1,))
                   for u in chains)
    assert len(all_bimodal_frames(1)) == 4
    two = all_bimodal_frames(2)
    assert len(two) == 136
    assert len({canonical_key((f.r1, f.r2), f.n) for f in two}) == 136
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one world"):
            linear_preorders(n)


def test_frame_key_invariant_under_relabelling():
    rng = Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        f = random_frame(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Frame(n, relabel(f.r1, perm), relabel(f.r2, perm))
        assert canonical_key((g.r1, g.r2), n) == canonical_key((f.r1, f.r2), n)


def test_frame_key_separates_non_isomorphic():
    # same degree sequence, different shape: a 3-cycle against a loop
    # plus a 2-cycle
    cycle = Frame(3, (0b010, 0b100, 0b001), (0, 0, 0))
    split = Frame(3, (0b001, 0b100, 0b010), (0, 0, 0))
    assert canonical_key((cycle.r1, cycle.r2), 3) != canonical_key((split.r1, split.r2), 3)


def test_frame_key_does_not_take_non_twins_for_twins():
    # The worlds of a 3-cycle share a colour but no two are twins, in r1
    # or in r2: a key that fixed their order would depend on the labels.
    # A loop plus a 2-cycle has the same degrees in every relation.  The
    # worlds of a 2-cycle and a 4-cycle share a colour and only the
    # 2-cycle's are twins: a cell is a twin group only if all its worlds are.
    cycle, split = (0b010, 0b100, 0b001), (0b001, 0b100, 0b010)
    for r1, r2 in ((cycle, (0, 0, 0)), ((0, 0, 0), cycle),
                   (cycle, (0b111,) * 3)):
        keys = {canonical_key((relabel(r1, p), relabel(r2, p)), 3)
                for p in permutations(range(3))}
        assert len(keys) == 1
        other = Frame(3, split if r1 == cycle else r1, split if r2 == cycle else r2)
        assert canonical_key((other.r1, other.r2), 3) not in keys
    mixed, triangles = cycles(2, 4), cycles(3, 3)
    keys = {canonical_key((relabel(mixed.r1, p), mixed.r2), 6)
            for p in permutations(range(6))}
    assert len(keys) == 1 and canonical_key((triangles.r1, triangles.r2), 6) not in keys


def cycles(*sizes: int) -> Frame:
    """Disjoint directed cycles of the given lengths in r1, r2 empty."""
    return disjoint_union(*(Frame(m, tuple(1 << (i + 1) % m for i in range(m)),
                                  (0,) * m) for m in sizes))


def torus(m: int, steps) -> tuple[int, ...]:
    """The Cayley digraph of Z_m x Z_m with the given steps."""
    return tuple(sum(1 << (a + da) % m * m + (b + db) % m for da, db in steps)
                 for a in range(m) for b in range(m))


# Two strongly regular graphs with parameters (16, 6, 2, 2): colour
# refinement gives every world of both one colour, and keeps giving the
# non-neighbours of a Shrikhande world one colour, though the world's
# stabiliser splits them into two orbits.
SHRIKHANDE = torus(4, [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
ROOK = torus(4, [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])


def test_frame_key_of_symmetric_frames():
    # Products of clusters, a tack and unions of cycles have colour cells
    # with no twins and many automorphisms, so a search that tried every
    # order of such a cell would take seconds to hours per frame.  In the
    # union of the two strongly regular graphs, an automorphism found below
    # a rook world need not fix a Shrikhande world, and pruning below the
    # latter with it would lose leaves.
    same = [product(left(a), cluster(b)) for left in (cluster, chain)
            for a in range(1, 17) for b in range(1, 17 // a + 1) if a * b <= 16]
    same += [tack("both", 3), tack("both", 4), cycles(3, 3, 6), cycles(3, 3, 3, 3),
             Frame(32, ROOK + tuple(row << 16 for row in SHRIKHANDE), (0,) * 32)]
    rng = Random(19)
    for f in same:
        key = canonical_key((f.r1, f.r2), f.n)
        for _ in range(3):
            perm = rng.sample(range(f.n), f.n)
            assert canonical_key((relabel(f.r1, perm), relabel(f.r2, perm)), f.n) == key, f
    apart = [(product(cluster(2), cluster(6)), product(cluster(3), cluster(4))),
             (product(chain(3), cluster(4)), product(cluster(4), chain(3))),
             (cycles(3, 3, 6), cycles(3, 3, 3, 3)),
             (Frame(16, SHRIKHANDE, (0,) * 16), Frame(16, ROOK, (0,) * 16))]
    for f, g in apart:
        assert f.n == g.n
        assert canonical_key((f.r1, f.r2), f.n) != canonical_key((g.r1, g.r2), g.n)


@st.composite
def blown_up_preorders(draw):
    """A lifted preorder on at most 7 worlds whose points are blown up into
    clusters of up to 5 twins, then relabelled."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)
                 .filter(lambda s: sum(s) <= 7))
    k = len(sizes)
    base = rt_closure(tuple(draw(st.integers(0, (1 << k) - 1))
                            for _ in range(k)), k)
    index = [i for i, size in enumerate(sizes) for _ in range(size)]
    perm = draw(st.permutations(range(len(index))))
    return lift(UniFrame(len(index), relabel(pull_rows(base, index), perm)))


@st.composite
def doubled_frames(draw):
    """Two copies of a frame side by side, relabelled: a world and its copy
    share a colour and are seldom twins."""
    f = disjoint_union(*[draw(frames(max_n=3))] * 2)
    perm = draw(st.permutations(range(f.n)))
    return Frame(f.n, relabel(f.r1, perm), relabel(f.r2, perm))


@settings(max_examples=200, deadline=None)
@given(st.one_of(frames(max_n=6), blown_up_preorders(), doubled_frames()),
       st.data())
def test_frame_key_matches_the_permutation_oracle(f, data):
    # g is f relabelled, or f with one bit of one relation flipped and then
    # relabelled: the keys must tell the pair apart exactly when the oracle's do
    r1, r2 = list(f.r1), list(f.r2)
    if data.draw(st.booleans()):
        rows = (r1, r2)[data.draw(st.integers(0, 1))]
        rows[data.draw(st.integers(0, f.n - 1))] ^= 1 << data.draw(st.integers(0, f.n - 1))
    perm = data.draw(st.permutations(range(f.n)))
    g = Frame(f.n, relabel(r1, perm), relabel(r2, perm))
    same = permutation_key((f.r1, f.r2), f.n) == permutation_key((g.r1, g.r2), g.n)
    assert (canonical_key((f.r1, f.r2), f.n) == canonical_key((g.r1, g.r2), g.n)) == same


# A loop and a 2-cycle: every world has one successor and one predecessor,
# and only the loop bits of the start colours split the loop off the twins.
SPLIT = Frame(3, (0b001, 0b100, 0b010), (0, 0, 0))
# 0 below the twins 2 and 3, and 1 below 4: only the predecessors' colours
# tell 4 from the twins.
FORK = Frame(5, (0b01101, 0b10010, 0b00100, 0b01000, 0b10000), (0,) * 5)
# frames whose refined cells are all twin groups, and frames whose cells are not
LEAF_FRAMES = [Frame(0, (), ()), Frame(1, (1,), (0,)), lift(cluster(3)), SPLIT,
               FORK, lift(chain(3)), product(chain(2), chain(2)),
               product(chain(2), chain(3)), product(chain(3), chain(3))]
BRANCHING_FRAMES = [cycles(3, 3), cycles(2, 4), cycles(3, 3, 6),
                    cycles(3, 3, 3, 3), product(cluster(2), chain(2))]


@lru_cache(maxsize=None)
def oracle_class(f: Frame) -> tuple:
    """The isomorphism class of f as ``permutation_key`` gives it, or, for a
    union of cycles past 6 worlds (where the oracle would try 12! orders),
    as its cycle lengths."""
    if f.n <= 6 or any(f.r2):
        return permutation_key((f.r1, f.r2), f.n)
    assert sorted(f.r1) == [1 << w for w in range(f.n)]
    lengths, seen = [], 0
    for w in range(f.n):
        length = 0
        while not seen >> w & 1:
            seen |= 1 << w
            w, length = f.r1[w].bit_length() - 1, length + 1
        lengths.append(length)
    return "cycles", tuple(sorted(x for x in lengths if x))


@st.composite
def relabelled_copies(draw):
    """Shuffled (original, copy) pairs: originals drawn from both lists, some
    up to 6 worlds with one bit flipped, each relabelled one to three times."""
    pairs = []
    for f in draw(st.lists(st.sampled_from(LEAF_FRAMES + BRANCHING_FRAMES),
                           min_size=1, max_size=6)):
        if 0 < f.n <= 6 and draw(st.booleans()):
            r1, r2 = list(f.r1), list(f.r2)
            rows = (r1, r2)[draw(st.integers(0, 1))]
            rows[draw(st.integers(0, f.n - 1))] ^= 1 << draw(st.integers(0, f.n - 1))
            f = Frame(f.n, tuple(r1), tuple(r2))
        for _ in range(draw(st.integers(1, 3))):
            perm = draw(st.permutations(range(f.n)))
            pairs.append((f, Frame(f.n, relabel(f.r1, perm), relabel(f.r2, perm))))
    return draw(st.permutations(pairs))


@settings(max_examples=100, deadline=None)
@given(relabelled_copies())
def test_iso_distinct_keeps_the_first_frame_of_each_class(pairs):
    # One call keys frames of several world counts, on both routes.  A copy
    # is isomorphic to its original, and the oracle tells originals apart.
    # The batched keys of each world count, however few its frames, must
    # be equal exactly where the oracle's classes are, and each must be
    # the key the frame gets alone, so that blocks of frames agree.
    classes = [oracle_class(original) for original, _ in pairs]
    expected = [i for i, c in enumerate(classes) if c not in classes[:i]]
    copies = [copy for _, copy in pairs]
    kept = iso_distinct(copies)
    assert [next(i for i, g in enumerate(copies) if g is f) for f in kept] == expected
    for n in {f.n for f in copies}:
        batch = [(c, f) for c, f in zip(classes, copies) if f.n == n]
        keys = _keys([(f.r1, f.r2) for _, f in batch], n)
        assert all((k == j) == (c == d) for k, (c, _) in zip(keys, batch)
                   for j, (d, _) in zip(keys, batch))
        assert keys == [_keys([(f.r1, f.r2)], n)[0] for _, f in batch]


def test_iso_distinct_searches_only_the_frames_that_branch(monkeypatch):
    # Frames whose refined cells are all twin groups are keyed as one leaf
    # each, in one batch per world count, however few its frames; only the
    # others reach canonical_key, once each.  A kernel that refined too
    # coarsely, or sent every frame to the search, would give the same
    # answer.
    key = enumeration.canonical_key
    for copies, seed in ((8, 24), (1, 25)):
        rng = Random(seed)
        corpus = [(f in BRANCHING_FRAMES,
                   Frame(f.n, relabel(f.r1, perm), relabel(f.r2, perm)))
                  for f in LEAF_FRAMES + BRANCHING_FRAMES
                  for perm in (rng.sample(range(f.n), f.n) for _ in range(copies))]
        rng.shuffle(corpus)
        calls = []
        monkeypatch.setattr(enumeration, "canonical_key",
                            lambda relations, n: calls.append(relations) or key(relations, n))
        kept = iso_distinct(f for _, f in corpus)
        assert len(kept) == len(LEAF_FRAMES) + len(BRANCHING_FRAMES)
        assert sorted(calls) == sorted((f.r1, f.r2) for branching, f in corpus if branching)


def test_keys_past_int64_masks_use_the_search(monkeypatch):
    # 63 worlds do not fit an int64 row mask
    f = lift(chain(63))
    calls = []
    key = enumeration.canonical_key
    monkeypatch.setattr(enumeration, "canonical_key",
                        lambda relations, n: calls.append(n) or key(relations, n))
    assert len(set(_keys([(f.r1, f.r2)] * 2, 63))) == 1 and calls == [63, 63]


def test_packed_ranks_first_column_may_pass_the_base():
    # Colours lead the counts in _keys and pass the base.  Taken as below
    # the base, 2^40 would fold on past 2^63 and wrap.
    rng = Random(40)
    tuples = [(rng.choice([0, 1, 1 << 40]), *(rng.randrange(1 << 12) for _ in range(3)))
              for _ in range(60)]
    rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
    columns = [np.array(column, np.int64) for column in zip(*tuples)]
    ids, count = _packed_ranks(columns[0], columns[1:], 1 << 12)
    assert ids.tolist() == [rank[t] for t in tuples] and count == len(rank)


def generated_group(generators, n):
    """Every permutation that the generators compose to."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


@settings(max_examples=120, deadline=None)
@given(st.one_of(frames(max_n=5), blown_up_preorders(), doubled_frames()))
def test_automorphism_generators_generate_every_automorphism(f):
    autos = automorphisms(f)
    generators = automorphism_generators((f.r1, f.r2), f.n)
    assert set(generators) <= autos
    assert generated_group(generators, f.n) == autos


@pytest.mark.parametrize("f, order", [(rect(3, 4), 3 * 2 * 4 * 3 * 2),
                                      (tack("both", 3), 3 * 2 * 3 * 2),
                                      (Frame(4, (0b0101, 0b1000, 0, 0), (0,) * 4), 1)])
def test_automorphism_generators_reach_each_colour_class(f, order):
    # Aut(rect(a, b)) is S_a x S_b, transitive on the worlds; a tack adds a
    # top that every automorphism fixes; the two sinks of the last frame
    # differ only in whether the world that sees them has a loop.  The
    # generators must be automorphisms, and their orbits the cells of the
    # stable colouring.
    generators = automorphism_generators((f.r1, f.r2), f.n)
    for g in generators:
        assert sorted(g) == list(range(f.n))
        assert pull_rows(f.r1, g) == f.r1 and pull_rows(f.r2, g) == f.r2
    group = generated_group(generators, f.n)
    colors = _equitable(*_adjacency((f.r1, f.r2), f.n))
    for w in range(f.n):
        cell = [v for v in range(f.n) if colors[v] == colors[w]]
        assert sorted({p[w] for p in group}) == cell
    assert len(group) == order


def test_automorphism_generators_past_colour_refinement():
    # Colour refinement gives every world of two 3-cycles and a 6-cycle the
    # same colour, even with one 3-cycle world individualised, so only the
    # leaves' rows, not the colours, keep a 3-cycle from being paired with
    # the 6-cycle.  The group is (C3 x C3) : C2 times C6.
    f = cycles(3, 3, 6)
    rng = Random(12)
    for _ in range(20):
        perm = rng.sample(range(f.n), f.n)
        g = Frame(f.n, relabel(f.r1, perm), relabel(f.r2, perm))
        generators = automorphism_generators((g.r1, g.r2), g.n)
        for p in generators:
            assert pull_rows(g.r1, p) == g.r1 and pull_rows(g.r2, p) == g.r2
        assert len(generated_group(generators, g.n)) == 9 * 2 * 6


def test_automorphism_generators_of_small_frames():
    # a 3-cycle turns, a chain is rigid, and a frame without worlds has
    # nothing to move; the worlds of a cluster are twins, so the search
    # never branches and twin swaps alone must give all of S_3
    cycle = Frame(3, (0b010, 0b100, 0b001), (0, 0, 0))
    assert len(generated_group(automorphism_generators((cycle.r1, cycle.r2), 3), 3)) == 3
    twins3 = lift(cluster(3))
    assert len(generated_group(automorphism_generators((twins3.r1, twins3.r2), 3), 3)) == 6
    chain3 = Frame(3, (0b111, 0b110, 0b100), (0b001, 0b010, 0b100))
    assert automorphism_generators((chain3.r1, chain3.r2), 3) == []
    assert automorphism_generators(((), ()), 0) == []


@st.composite
def world_maps(draw, max_n: int = 6):
    """A map from some m worlds into n worlds."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_n))
    return tuple(draw(st.integers(0, n - 1)) for _ in range(m)), n


@settings(max_examples=150, deadline=None)
@given(world_maps(), st.data())
def test_pull_composes(fn, data):
    f, n = fn
    k = data.draw(st.integers(1, 6))
    g = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
    mask = data.draw(st.integers(0, (1 << k) - 1))
    assert pull(pull(mask, g), f) == pull(mask, [g[i] for i in f])


@settings(max_examples=150, deadline=None)
@given(world_maps())
def test_fibers_are_pulled_singletons(fn):
    f, n = fn
    fib = fibers(f, n)
    assert len(fib) == n
    for d in range(n):
        assert fib[d] == pull(1 << d, f)


@settings(max_examples=150, deadline=None)
@given(frames(max_n=5), st.data())
def test_pull_rows_relates_images(frame, data):
    m = data.draw(st.integers(0, 6))
    f = tuple(data.draw(st.integers(0, frame.n - 1)) for _ in range(m))
    pulled = pull_rows(frame.r1, f)
    assert len(pulled) == m
    for i in range(m):
        for j in range(m):
            assert pulled[i] >> j & 1 == frame.r1[f[i]] >> f[j] & 1

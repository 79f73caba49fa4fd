from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kripkebench.constructions import lift, rect, tack
from kripkebench.enumeration import (_color_classes, _posets,
                                     all_bimodal_frames, all_preorders,
                                     automorphism_generators, frame_key,
                                     linear_preorders, random_frame)
from kripkebench.frames import (Frame, UniFrame, fibers, frame_property, pull,
                                pull_rows, rt_closure)

from conftest import disjoint_union, frames
from oracle import automorphisms, permutation_key, recursive_posets


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


def test_linear_preorder_and_bimodal_counts():
    for n in range(1, 7):
        chains = linear_preorders(n)
        assert len(chains) == 2 ** (n - 1)
        assert all(frame_property(Frame(n, u.rows, u.rows), "linear", (1,))
                   for u in chains)
    assert len(all_bimodal_frames(1)) == 4
    two = all_bimodal_frames(2)
    assert len(two) == 136
    assert len({frame_key(f) for f in two}) == 136


def test_frame_key_invariant_under_relabelling():
    rng = Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        f = random_frame(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Frame(n, relabel(f.r1, perm), relabel(f.r2, perm))
        assert frame_key(g) == frame_key(f)


def test_frame_key_separates_non_isomorphic():
    # same degree sequence, different shape: a 3-cycle against a loop
    # plus a 2-cycle
    cycle = Frame(3, (0b010, 0b100, 0b001), (0, 0, 0))
    split = Frame(3, (0b001, 0b100, 0b010), (0, 0, 0))
    assert frame_key(cycle) != frame_key(split)


def test_frame_key_does_not_take_non_twins_for_twins():
    # The worlds of a 3-cycle share a colour but no two are twins, in r1
    # or in r2: a key that fixed their order would depend on the labels.
    cycle = (0b010, 0b100, 0b001)
    for r1, r2 in ((cycle, (0, 0, 0)), ((0, 0, 0), cycle),
                   (cycle, (0b111,) * 3)):
        keys = {frame_key(Frame(3, relabel(r1, p), relabel(r2, p)))
                for p in permutations(range(3))}
        assert keys == {permutation_key((r1, r2), 3)}


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
@given(st.one_of(frames(max_n=6), blown_up_preorders(), doubled_frames()))
def test_frame_key_matches_the_permutation_oracle(f):
    assert frame_key(f) == permutation_key((f.r1, f.r2), f.n)


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
                                      (tack("both", 3), 3 * 2 * 3 * 2)])
def test_automorphism_generators_reach_each_colour_class(f, order):
    # Aut(rect(a, b)) is S_a x S_b, transitive on the worlds; a tack adds a
    # top that every automorphism fixes.  The generators must be
    # automorphisms, and their orbits the colour classes.
    generators = automorphism_generators((f.r1, f.r2), f.n)
    for g in generators:
        assert sorted(g) == list(range(f.n))
        assert pull_rows(f.r1, g) == f.r1 and pull_rows(f.r2, g) == f.r2
    group = generated_group(generators, f.n)
    for cls in _color_classes((f.r1, f.r2), f.n):
        for w in cls:
            assert sorted({p[w] for p in group}) == cls
    assert len(group) == order


def test_automorphism_generators_past_colour_refinement():
    # Colour refinement gives every world of two 3-cycles and a 6-cycle the
    # same colour, even with one 3-cycle world individualised, so the
    # search must compare traces to avoid pairing a 3-cycle with the
    # 6-cycle.  The group is (C3 x C3) : C2 times C6.
    def cycle(m):
        return Frame(m, tuple(1 << (i + 1) % m for i in range(m)), (0,) * m)

    f = disjoint_union(cycle(3), cycle(3), cycle(6))
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
    # nothing to move
    cycle = Frame(3, (0b010, 0b100, 0b001), (0, 0, 0))
    assert len(generated_group(automorphism_generators((cycle.r1, cycle.r2), 3), 3)) == 3
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

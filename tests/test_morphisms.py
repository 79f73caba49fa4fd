import sys
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from kripkebench import morphisms
from kripkebench.algebra import generated_subalgebra
from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       ordered_sum, product, rect, singleton,
                                       tack, tack_pre, tense_sum)
from kripkebench.errors import BudgetExceeded, FormatError
from kripkebench.formulas import named_formula
from kripkebench.frames import Frame, GeneralFrame, kripke_of, pull_rows
from kripkebench.morphisms import (blow_up, check_pmorphism, find_pmorphism,
                                   load_worldmap, store_worldmap, tack_collapse)
from kripkebench.semantics import valid

from conftest import as_general, frames, union_pmorphism


def oracle_first(g, h):
    ns = g.n if isinstance(g, Frame) else g.frame.n
    nt = h.n if isinstance(h, Frame) else h.frame.n
    for cand in iproduct(range(nt), repeat=ns):
        if check_pmorphism(g, h, cand) is None:
            return cand
    return None


def relabel(f: Frame, perm) -> Frame:
    """The same frame with new world i standing for old world perm[i]."""
    return Frame(f.n, pull_rows(f.r1, perm), pull_rows(f.r2, perm))


@st.composite
def general_frames(draw, max_n: int = 3):
    """A random frame with the subalgebra generated by up to two random sets."""
    f = draw(frames(max_n=max_n))
    gens = draw(st.lists(st.integers(0, f.full), max_size=2))
    return GeneralFrame(f, generated_subalgebra(f, gens).elements)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_find_depth_is_not_bounded_by_the_recursion_limit():
    # one Python frame per source world would need 150 more than allowed
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        found = find_pmorphism(lift(chain(150)), singleton())
    finally:
        sys.setrecursionlimit(limit)
    assert found == (0,) * 150


def test_find_rechecks_only_the_back_clauses_a_step_can_break(monkeypatch):
    # no step of a chain onto the singleton narrows a domain, so each step
    # checks the back clauses of its own world only: three reduce calls per
    # world, where checking every assigned world again takes about n * n
    calls = 0
    reduce = morphisms.reduce

    def counted(*args):
        nonlocal calls
        calls += 1
        return reduce(*args)

    monkeypatch.setattr(morphisms, "reduce", counted)
    assert find_pmorphism(lift(chain(60)), singleton()) == (0,) * 60
    assert calls <= 3 * 60


def test_find_rechecks_back_clauses_that_read_a_narrowed_domain(monkeypatch):
    # no map exists; with 0 -> 1, assigning 1 -> 0 narrows the domains of
    # worlds 1 and 2, which breaks the back clause of world 0, so the search
    # ends before any leaf
    leaves = 0
    check = morphisms.check_pmorphism

    def counted(*args):
        nonlocal leaves
        leaves += 1
        return check(*args)

    monkeypatch.setattr(morphisms, "check_pmorphism", counted)
    g = Frame(3, (0b101, 0b011, 0b111), (0b011, 0b001, 0b110))
    h = Frame(2, (0b11, 0b11), (0b10, 0b11))
    assert find_pmorphism(g, h) is None and oracle_first(g, h) is None
    assert leaves == 0


def test_find_on_empty_frames():
    empty, point = Frame(0, (), ()), Frame(1, (1,), (1,))
    general = GeneralFrame(empty, (0,))
    for g, h, expected in ((empty, empty, ()), (general, general, ()),
                           (general, empty, ()), (empty, point, None),
                           (point, empty, None), (general, point, None)):
        assert find_pmorphism(g, h) == oracle_first(g, h) == expected


def test_check_examples():
    src, tgt, f = tack_collapse("both", 2)
    assert check_pmorphism(src, tgt, f) is None

    assert check_pmorphism(lift(chain(2)), singleton(), (0, 0)) is None

    v = check_pmorphism(lift(chain(2)), Frame(2, (0b11, 0b11), (0b01, 0b10)),
                        (0, 1))
    assert v is not None and v.clause == "back" and v.modality == 1
    assert v.worlds == (1, 0)


def test_check_surjectivity_and_shape():
    v = check_pmorphism(singleton(), lift(chain(2)), (0,))
    assert v is not None and v.clause == "surjective"
    with pytest.raises(FormatError):
        check_pmorphism(singleton(), singleton(), (0, 0))
    with pytest.raises(FormatError):
        check_pmorphism(singleton(), singleton(), (5,))


def test_check_admissibility():
    frame = lift(chain(2))
    trivial = GeneralFrame(frame, (0b00, 0b11))
    # identity onto the Kripke two-chain needs singleton preimages admissible
    v = check_pmorphism(trivial, frame, (0, 1))
    assert v is not None and v.clause == "admissibility" and v.worlds == (0,)
    assert str(v) == "admissibility: preimage 10 of target set 10 is not admissible"
    # collapsing to a point is fine
    assert check_pmorphism(trivial, singleton(), (0, 0)) is None
    # against a general target, its algebra is also checked
    full = as_general(frame)
    assert check_pmorphism(full, as_general(singleton()), (0, 0)) is None


def test_find_examples():
    found = find_pmorphism(rect(2, 2), rect(2, 2))
    assert found is not None
    assert check_pmorphism(rect(2, 2), rect(2, 2), found) is None

    assert find_pmorphism(lift(chain(2)), Frame(2, (0b11, 0b11), (0b01, 0b10))) is None

    lg = find_pmorphism(lintgrz(3), lintgrz(2))
    assert lg is not None
    assert check_pmorphism(lintgrz(3), lintgrz(2), lg) is None
    assert len(set(lg)) == 2


def test_find_budget():
    with pytest.raises(BudgetExceeded):
        find_pmorphism(rect(3, 3), rect(3, 3), budget=10)


def test_find_agrees_with_oracle_structured():
    pairs = [
        (rect(2, 2), rect(2, 2)),
        (lintgrz(3), lintgrz(2)),
        (lintgrz(4), lintgrz(2)),
        (lift(chain(3)), lift(chain(2))),
        (lift(chain(2)), Frame(2, (0b11, 0b11), (0b01, 0b10))),
        (tack("both", 1), singleton()),
        (tack("1", 2), tack("1", 1)),
        (lift(cluster(3)), lift(cluster(2))),
        (product(chain(2), chain(2)), lift(chain(2))),
        (rect(2, 2), singleton()),
        (singleton(), lift(chain(2))),
    ]
    for g, h in pairs:
        assert find_pmorphism(g, h) == oracle_first(g, h), (g, h)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(frames(max_n=3), general_frames()),
       st.one_of(frames(max_n=3), general_frames()))
def test_find_agrees_with_oracle_random(g, h):
    assert find_pmorphism(g, h) == oracle_first(g, h)


@pytest.mark.parametrize("kind, mp, expected", [
    ("both", 2, (0, 0, 0, 1, 4, 0, 0, 0, 1, 4, 0, 0, 0, 1, 4,
                 2, 2, 2, 3, 4, 4, 4, 4, 4, 4)),
    ("both", 3, (0, 0, 1, 2, 9, 0, 0, 1, 2, 9, 3, 3, 4, 5, 9,
                 6, 6, 7, 8, 9, 9, 9, 9, 9, 9)),
    ("both", 4, (0, 1, 2, 3, 16, 4, 5, 6, 7, 16, 8, 9, 10, 11, 16,
                 12, 13, 14, 15, 16, 16, 16, 16, 16, 16)),
    ("1", 2, (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2, 2, 2, 3, 4, 4, 4, 4)),
    ("1", 3, (0, 0, 1, 2, 0, 0, 1, 2, 3, 3, 4, 5, 6, 6, 7, 8, 9, 9, 9, 9)),
    ("1", 4, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
              16, 16, 16, 16)),
    ("2", 2, (0, 0, 0, 1, 4, 0, 0, 0, 1, 4, 0, 0, 0, 1, 4, 2, 2, 2, 3, 4)),
    ("2", 3, (0, 0, 1, 2, 9, 0, 0, 1, 2, 9, 3, 3, 4, 5, 9, 6, 6, 7, 8, 9)),
    ("2", 4, (0, 1, 2, 3, 16, 4, 5, 6, 7, 16, 8, 9, 10, 11, 16,
              12, 13, 14, 15, 16)),
])
def test_find_tack_collapse_pinned(kind, mp, expected):
    # past the oracle's reach (up to 17^25 maps): pinned to the first map
    # of plain lexicographic backtracking
    src, tgt, _ = tack_collapse(kind, 4, mp)
    assert find_pmorphism(src, tgt, budget=1 << 200) == expected


def test_find_first_map_deep_in_the_order():
    # reversed, world 0 is a copy of the top of the chain, so every map
    # starts with the last target
    h = lintgrz(4)
    g, _ = blow_up(h, (2, 1, 1, 2))
    g = relabel(g, tuple(reversed(range(g.n))))
    assert find_pmorphism(g, h) == oracle_first(g, h) == (3, 3, 2, 1, 0, 0)

    upside_down = relabel(lintgrz(2), (1, 0))
    assert (find_pmorphism(lintgrz(4), upside_down)
            == oracle_first(lintgrz(4), upside_down) == (1, 0, 0, 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(frames(min_n=2, max_n=3), st.lists(st.integers(1, 2), min_size=3,
                                          max_size=3), st.randoms())
def test_find_agrees_with_oracle_on_relabelled_blowups(h, sizes, rnd):
    g, _ = blow_up(h, tuple(sizes[:h.n]))
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = relabel(g, perm)
    assert find_pmorphism(g, h) == oracle_first(g, h) is not None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(frames(min_n=2, max_n=3), st.lists(st.integers(1, 2), min_size=3,
                                          max_size=3), st.integers(0, 2))
def test_find_no_map_onto_an_irreflexive_world(h, sizes, w):
    # a reflexive first relation has only reflexive p-morphic images
    assume(sum(sizes[:h.n]) <= 5)
    g, _ = blow_up(h, tuple(sizes[:h.n]))
    g = Frame(g.n, tuple(row | 1 << a for a, row in enumerate(g.r1)), g.r2)
    r1 = [row | 1 << d for d, row in enumerate(h.r1)]
    r1[w % h.n] &= ~(1 << w % h.n)
    h = Frame(h.n, tuple(r1), h.r2)
    assert find_pmorphism(g, h) is None
    assert oracle_first(g, h) is None


def test_find_leaf_checks_admissibility():
    # the four-world cluster whose algebra only sees the halves {0,1} and
    # {2,3}: the first Kripke map onto the two-cluster splits a half, so the
    # first p-morphism of the general frame comes later
    frame = Frame(4, (0b1111,) * 4, (0b1111,) * 4)
    g = GeneralFrame(frame, (0b0000, 0b0011, 0b1100, 0b1111))
    h = Frame(2, (0b11, 0b11), (0b11, 0b11))
    assert find_pmorphism(kripke_of(g), h) == (0, 0, 0, 1)
    assert find_pmorphism(g, h) == oracle_first(g, h) == (0, 0, 1, 1)
    assert find_pmorphism(g, as_general(h)) == (0, 0, 1, 1)


def test_found_maps_transfer_validity():
    basis = [named_formula(n, a) for n, a in [
        ("bh", [1, 1]), ("bh", [1, 2]), ("com", []), ("chr", []),
        ("conv", []), ("dd", []), ("mck", [1]), ("mck", [2]),
        ("u_incl", []), ("sym2", []), ("dot3", [1]), ("dot3", [2]),
        ("triv_ax", [1]), ("s4_ax", [1]), ("s4_ax", [2]), ("s5_ax", [2]),
        ("match2_ax", []), ("match12_ax", []),
    ]]
    pairs = [(lintgrz(3), lintgrz(2)), (lift(chain(3)), lift(chain(2))),
             (rect(2, 2), singleton()), (tack("both", 2), tack("both", 1))]
    for g, h in pairs:
        f = find_pmorphism(g, h)
        assert f is not None
        for phi in basis:
            if valid(g, phi, budget=1 << 22):
                assert valid(h, phi, budget=1 << 22), (g, h, phi)


def test_union_examples():
    f1 = (0, 0, 0, 0)
    assert check_pmorphism(rect(2, 2), rect(1, 1), f1) is None
    u = union_pmorphism(f1, (0,))
    assert u == (0, 0, 0, 0, 1)
    assert check_pmorphism(tack("both", 2), tack("both", 1), u) is None
    for kind in ("1", "2"):
        assert check_pmorphism(ordered_sum(rect(2, 2), singleton(), kind),
                               ordered_sum(rect(1, 1), singleton(), kind),
                               u) is None

    collapse = find_pmorphism(lintgrz(3), lintgrz(2))
    ut = union_pmorphism(collapse, (0,))
    assert check_pmorphism(tense_sum(lintgrz(3), singleton()),
                           tense_sum(lintgrz(2), singleton()), ut) is None

    ids = union_pmorphism((0, 1), (0,))
    assert ids == (0, 1, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(frames(max_n=2), frames(max_n=2),
       st.lists(st.integers(1, 2), min_size=2, max_size=2),
       st.lists(st.integers(1, 2), min_size=2, max_size=2),
       st.sampled_from(["both", "1", "2"]))
def test_union_of_blowup_collapses(h1, h2, sizes1, sizes2, kind):
    g1, f1 = blow_up(h1, tuple(sizes1[:h1.n]) + (1,) * max(0, h1.n - 2))
    g2, f2 = blow_up(h2, tuple(sizes2[:h2.n]) + (1,) * max(0, h2.n - 2))
    assert check_pmorphism(g1, h1, f1) is None
    assert check_pmorphism(g2, h2, f2) is None
    u = union_pmorphism(f1, f2)
    assert check_pmorphism(ordered_sum(g1, g2, kind),
                           ordered_sum(h1, h2, kind), u) is None


def test_tack_collapse_all_kinds():
    for m in (1, 2, 3):
        for kind in ("both", "1", "2"):
            src, tgt, f = tack_collapse(kind, m)
            assert check_pmorphism(src, tgt, f) is None
            assert tgt == tack(kind, m)
    src, _, _ = tack_collapse("1", 2)
    assert src == product(tack_pre(2), cluster(2))
    src, _, _ = tack_collapse("2", 2)
    assert src == product(cluster(2), tack_pre(2))


def test_worldmap_json_round_trip():
    f = (0, 2, 1)
    assert load_worldmap(store_worldmap(f)) == f
    with pytest.raises(FormatError):
        load_worldmap(b'{"not": "a list"}')


@pytest.mark.parametrize("data", [b"[0, 1]\xff", b"[true, false]"])
def test_worldmap_rejects_undecodable_and_boolean(data):
    with pytest.raises(FormatError):
        load_worldmap(data)

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       ordered_sum, product, rect, singleton,
                                       tack, tack_pre, tense_sum)
from kripkebench.errors import BudgetExceeded, FormatError
from kripkebench.formulas import named_formula
from kripkebench.frames import Frame, as_general, GeneralFrame
from kripkebench.morphisms import (blow_up, check_pmorphism, find_pmorphism,
                                   load_worldmap, store_worldmap,
                                   tack_collapse, union_pmorphism)
from kripkebench.semantics import valid

from conftest import frames


def oracle_first(g, h):
    ns = g.n if isinstance(g, Frame) else g.frame.n
    nt = h.n if isinstance(h, Frame) else h.frame.n
    for cand in iproduct(range(nt), repeat=ns):
        if check_pmorphism(g, h, cand) is None:
            return cand
    return None


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
    assert v is not None and v.clause == "admissibility"
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frames(max_n=3), frames(max_n=3))
def test_find_agrees_with_oracle_random(g, h):
    assert find_pmorphism(g, h) == oracle_first(g, h)


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

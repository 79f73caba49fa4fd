import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kripkebench.constructions import (chain, cluster, lift, lintgrz,
                                       match_frame, ordered_sum, product,
                                       rect, singleton, swap_relations, tack,
                                       tack_pre, tense_sum, univ_chain)
from kripkebench.enumeration import all_preorders, canonical_key
from kripkebench.errors import FormatError, NotTense
from kripkebench.formulas import named_formula
from kripkebench.frames import Frame, analyze, diagonal, frame_property
from kripkebench.morphisms import check_pmorphism, tack_collapse
from kripkebench.semantics import valid


def test_product_examples():
    assert product(chain(2), cluster(1)) == lift(chain(2))
    r = product(cluster(2), cluster(2))
    assert r == rect(2, 2)
    assert frame_property(r, "com") and frame_property(r, "cr")
    pr = product(chain(2), chain(2))
    assert valid(pr, named_formula("com"))
    assert valid(pr, named_formula("chr"))


def test_ordered_sum_examples():
    assert ordered_sum(rect(2, 2), singleton(), "both") == tack("both", 2)
    assert ordered_sum(rect(2, 2), singleton(), "1") == tack("1", 2)
    two_chain = ordered_sum(singleton(), singleton(), "both")
    assert two_chain == Frame(2, (0b11, 0b10), (0b11, 0b10))


def test_tense_sum_examples():
    assert tense_sum(singleton(), singleton()) == lintgrz(2)
    f = singleton()
    for _ in range(3):
        f = tense_sum(f, singleton())
    assert f == lintgrz(4)
    with pytest.raises(NotTense):
        tense_sum(lift(chain(2)), singleton())


def test_builder_examples():
    t = tack("both", 1)
    assert t.n == 2 and analyze(t).height == 2

    mf = match_frame(1, "1", 2)
    assert mf.n == 3
    assert mf.r1 == (0b111, 0b110, 0b100)          # chain below, all below top
    assert mf.r2 == (0b011, 0b011, 0b100)          # cluster, isolated top

    lg = lintgrz(3)
    assert frame_property(lg, "tense")
    assert frame_property(lg, "linear", (1,)) and frame_property(lg, "poset", (1,))

    tp = tack_pre(2)
    assert tp.n == 3 and tp.rows == (0b111, 0b111, 0b100)

    assert univ_chain(2).r2 == (0b11, 0b11)
    assert swap_relations(univ_chain(2)) == Frame(2, (0b11, 0b11), (0b11, 0b10))

    with pytest.raises(FormatError):
        cluster(0)
    with pytest.raises(FormatError):
        tack("nope", 2)


def test_sum_kinds_are_read_one_way():
    assert tack(1, 2) == tack("1", 2) and tack(1, 2).spec.params == ("1", 2)
    assert match_frame(2, 2, 2) == match_frame(2, "2", 2)
    assert tack_collapse(2, 2) == tack_collapse("2", 2)
    f = lift(chain(2))
    for kind in (True, False, 1.0, 2.0, 3, "3", "Both", "", None, ("1",)):
        for build in (lambda: tack(kind, 2), lambda: ordered_sum(f, f, kind),
                      lambda: match_frame(1, kind, 2), lambda: tack_collapse(kind, 2)):
            with pytest.raises(FormatError):
                build()


def test_match_axis_is_an_int():
    f = match_frame(1, "1", 2)
    assert f.spec.params == (1, "1", 2)
    assert f.r1 == (0b111, 0b110, 0b100)
    for axis in (True, False, 1.0, 2.0, "1", 0, 3, None):
        with pytest.raises(FormatError):
            match_frame(axis, "1", 2)


def test_product_of_preorders_satisfies_com_cr():
    small = [p for n in (1, 2, 3) for p in all_preorders(n)]
    for a in small[:6]:
        for b in small[:6]:
            f = product(a, b)
            assert frame_property(f, "com")
            assert frame_property(f, "cr")


@pytest.mark.parametrize("kind", ["both", "1", "2"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_tack_structure(kind, m):
    sk = analyze(tack(kind, m))
    assert sk.height == 2
    assert sk.cluster_count == 2


def test_ordered_sum_associative():
    frames = [singleton(), rect(2, 2), lift(chain(2)), lift(cluster(2))]
    for a in frames:
        for b in frames:
            for c in frames:
                if a.n + b.n + c.n > 6:
                    continue
                left = ordered_sum(ordered_sum(a, b, "both"), c, "both")
                right = ordered_sum(a, ordered_sum(b, c, "both"), "both")
                assert canonical_key((left.r1, left.r2), left.n) == \
                    canonical_key((right.r1, right.r2), right.n)
                assert left == right  # left-first renumbering even agrees exactly


@pytest.mark.parametrize("m,mprime", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_tack_pre_product_collapses(m, mprime):
    src, tgt, f = tack_collapse("both", m, mprime)
    assert src == product(tack_pre(m), tack_pre(m))
    assert tgt == tack("both", mprime)
    assert check_pmorphism(src, tgt, f) is None


def test_lift_has_diagonal_second_relation():
    f = lift(chain(3))
    assert f.r2 == diagonal(3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3))
def test_rect_is_com_cluster(a, b):
    f = rect(a, b)
    sk = analyze(f)
    assert sk.cluster_count == 1 and sk.height == 1
    assert frame_property(f, "com") and frame_property(f, "cr")

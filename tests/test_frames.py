import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from kripkebench.algebra import generated_subalgebra
from kripkebench.constructions import (chain, cluster, lift, lintgrz, rect,
                                       singleton, tack, univ_chain)
from kripkebench.enumeration import all_preorders
from kripkebench.errors import (EmptyRestriction, FormatError,
                                UnknownProperty)
from kripkebench.frames import (Frame, GeneralFrame, analyze, bits_of,
                                bitstring, frame_property, load_frame,
                                load_valuation, mask_of, pull_rows, restriction,
                                rt_closure, store_frame, twins, worlds_of)
from kripkebench.morphisms import load_worldmap

import oracle
from conftest import as_general, frames, uniframe
from oracle import generated_subframe


def test_load_store_round_trip():
    f = load_frame(b'{"n":2,"r1":["11","01"],"r2":["11","11"]}')
    assert f == univ_chain(2)
    assert load_frame(store_frame(f)) == f
    g = load_frame(b'{"n":1,"r1":["1"],"r2":["1"]}')
    assert g == singleton()
    gen = load_frame(
        b'{"n":2,"r1":["11","01"],"r2":["10","01"],"algebra":["00","10","01","11"]}')
    assert isinstance(gen, GeneralFrame)
    assert load_frame(store_frame(gen)) == gen


def test_load_errors():
    with pytest.raises(FormatError, match="length"):
        load_frame({"n": 2, "r1": ["111", "01"], "r2": ["11", "11"]})
    with pytest.raises(FormatError, match="non-binary"):
        load_frame({"n": 2, "r1": ["1x", "01"], "r2": ["11", "11"]})
    with pytest.raises(FormatError, match="complement"):
        load_frame({"n": 2, "r1": ["11", "01"], "r2": ["10", "01"],
                    "algebra": ["00", "10"]})
    with pytest.raises(FormatError, match="preimage"):
        # Boolean-closed, but <1>{0} = {1} is missing
        GeneralFrame(Frame(3, (0b000, 0b001, 0b000), (0b001, 0b010, 0b100)),
                     (0b000, 0b001, 0b110, 0b111))
    with pytest.raises(FormatError):
        load_frame(b"not json")


@pytest.mark.parametrize("field, value", [
    ("r1", [[1], "01"]), ("r1", [None, "01"]), ("r1", [True, "01"]),
    ("algebra", [[1], "00", "10", "01", "11"]),
    ("algebra", [None, "00", "10", "01", "11"]),
])
def test_load_frame_rejects_non_set_entries(field, value):
    doc = {"n": 2, "r1": ["11", "01"], "r2": ["11", "11"], field: value}
    with pytest.raises(FormatError, match="bitstring or an integer"):
        load_frame(json.dumps(doc))


@pytest.mark.parametrize("n, rows", [
    (2.9, ["11", "01"]), (2.0, ["11", "01"]), ("2", ["11", "01"]),
    (True, ["1"]), (None, ["1"]), ([1], ["1"]),
])
def test_load_frame_rejects_non_integer_world_count(n, rows):
    doc = {"n": n, "r1": rows, "r2": rows}
    with pytest.raises(FormatError, match="integer field 'n'"):
        load_frame(json.dumps(doc))
    with pytest.raises(FormatError, match="integer field 'n'"):
        load_frame(json.dumps({"r1": rows, "r2": rows}))


def test_load_valuation():
    assert load_valuation(b'{"p0": "01", "p3": "11"}', 2) == {0: 0b10, 3: 0b11}
    assert load_valuation({}, 2) == {}


def test_load_valuation_rejects_short_bitstring():
    with pytest.raises(FormatError, match="length 3"):
        load_valuation('{"p0": "1"}', 3)


def test_load_valuation_rejects_long_bitstring():
    with pytest.raises(FormatError, match="length 3"):
        load_valuation('{"p0": "1010"}', 3)


def test_load_valuation_rejects_non_variable_key():
    for key in ("pX", "q0", "p", "p-1", "p 1"):
        with pytest.raises(FormatError, match="not a variable"):
            load_valuation({key: "10"}, 2)


def test_load_valuation_rejects_a_variable_named_twice():
    # the key pattern reads p00 as variable 0, like p0
    for doc in ('{"p0": "10", "p00": "01"}', '{"p01": "10", "p1": "01"}'):
        with pytest.raises(FormatError, match="names variable p[01] again"):
            load_valuation(doc, 2)


def test_load_valuation_rejects_malformed_json():
    for data in (b'{"p0": "10"', b"\xff", "[]", '"10"'):
        with pytest.raises(FormatError):
            load_valuation(data, 2)


def test_loaders_reject_a_repeated_key():
    # json.loads alone keeps the last value of a repeated key
    for doc in ('{"n": 2, "r1": ["11", "01"], "r2": ["11", "11"], "r2": ["10", "01"]}',
                b'{"n": 1, "n": 1, "r1": ["1"], "r2": ["1"]}',
                '{"n": 1, "r1": ["1"], "r2": ["1"], "x": [{"a": 1, "a": 1}]}'):
        with pytest.raises(FormatError, match="repeated key"):
            load_frame(doc)
    for doc in ('{"p0": "10", "p0": "01"}', '{"p0": "10", "p1": "01", "p0": "10"}'):
        with pytest.raises(FormatError, match="repeated key 'p0'"):
            load_valuation(doc, 2)
    # a key may recur in another object
    assert load_frame('{"n": 1, "r1": ["1"], "r2": ["1"], "x": {"n": 2}}') == singleton()


def test_general_frame_sorts_its_algebra_in_bitstring_order():
    # world 0 is the most significant: the bit tuples from world 0 up
    full = as_general(tack("both", 2))
    shuffled = tuple(random.Random(5).sample(full.algebra, len(full.algebra)))
    by_bits = sorted(shuffled, key=lambda m: [m >> i & 1 for i in range(5)])
    assert GeneralFrame(full.frame, shuffled).algebra == tuple(by_bits) == full.algebra


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@st.composite
def frame_documents(draw):
    """Dicts shaped like frame JSON with some fields bad: a world count that
    is no integer or is negative, a relation or algebra field that is
    absent, of the wrong type, with the wrong number of entries, with
    non-binary digits or masks out of range, and extra fields.  A random
    algebra is seldom closed."""
    bad = draw(st.sets(st.sampled_from(("n", "r1", "r2", "algebra", "extra")),
                       min_size=1, max_size=2))
    n = draw(json_values if "n" in bad else st.integers(-1, 4))
    size = n if isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 4 else 2
    good_set = (st.text(alphabet="01", min_size=size, max_size=size)
                | st.integers(0, (1 << size) - 1))
    bad_set = (st.text(alphabet="01x", max_size=size + 1)
               | st.integers(-1, (1 << size) + 1) | json_values)
    doc = {"n": n}
    for field in ("r1", "r2", "algebra"):
        if field in bad:
            if draw(st.booleans()):
                doc[field] = draw(json_values | st.lists(bad_set, max_size=size + 1))
        elif field != "algebra":
            doc[field] = draw(st.lists(good_set, min_size=size, max_size=size))
        elif draw(st.booleans()):
            doc[field] = draw(st.lists(good_set, max_size=6))
    if "extra" in bad:
        doc.update(draw(st.dictionaries(st.text(max_size=3), json_values, max_size=2)))
    return doc


valuation_documents = st.dictionaries(
    st.from_regex(r"p[0-9]{1,3}", fullmatch=True) | st.text(max_size=4),
    st.text(alphabet="01", max_size=5) | json_values, max_size=4)


def _size_extremes(test):
    """The test with explicit documents at the interpreter's limits: JSON
    nested 900, 1000 and 5000 levels deep (the decoder recurses, and the
    limit is 1000 frames), and digit strings of 4300 and 5000 characters in
    keys, values and "n" (``int`` converts at most 4300 digits).  A text
    document is given as it is; a decoded one also as its JSON text."""
    texts, docs = [], []
    for depth in (900, 1000, 5000):
        nest = "[" * depth + "]" * depth
        texts += [nest, '{"n": ' * depth + "1" + "}" * depth,
                  '{"n": 1, "r1": [' + nest + '], "r2": ["1"]}', '{"p0": ' + nest + "}"]
    for digits in ("1" * 4300, "1" * 5000):
        docs += [{"p" + digits: "10"}, {"p0": digits}, {"n": digits, "r1": [], "r2": []}]
        texts += ['{"n": ' + digits + ', "r1": [], "r2": []}', '{"p0": ' + digits + "}",
                  "[" + digits + "]"]
    for doc, as_text in [(doc, False) for doc in texts + docs] + [(doc, True) for doc in docs]:
        test = example(doc=doc, frame_doc=doc, valuation_doc=doc, map_doc=doc,
                       n=2, as_text=as_text)(test)
    return test


@settings(max_examples=200, deadline=None)
@_size_extremes
@given(json_values, frame_documents(), valuation_documents,
       st.lists(st.integers() | json_values, max_size=5), st.integers(0, 4),
       st.booleans())
def test_loaders_raise_only_format_errors(doc, frame_doc, valuation_doc,
                                          map_doc, n, as_text):
    # any JSON value, and one shaped like each loader's input, as a document
    # or as its text (NaN included), either loads or raises FormatError:
    # nothing else may escape a loader
    for load, shaped in ((load_frame, frame_doc),
                         (lambda d: load_valuation(d, n), valuation_doc),
                         (load_worldmap, map_doc)):
        for data in (doc, shaped):
            try:
                load(json.dumps(data) if as_text else data)
            except FormatError:
                pass


def _nested(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


_DEEP, _LARGE = _nested(1000), 10 ** 5000 // 9


@pytest.mark.parametrize("doc", [
    pytest.param(_DEEP, id="list-1000-deep"),
    pytest.param([_LARGE], id="int-5000-digits-in-list"),
    pytest.param({"n": _LARGE, "r1": [], "r2": []}, id="n-5000-digits"),
    pytest.param({"p0": _LARGE}, id="value-5000-digits"),
    pytest.param({"n": 1, "r1": [_DEEP], "r2": ["1"]}, id="row-1000-deep"),
    pytest.param({"p0": _DEEP}, id="value-1000-deep"),
    pytest.param({"n": _DEEP, "r1": [], "r2": []}, id="n-1000-deep"),
    pytest.param({"n": 1, "r1": ["1"], "r2": ["1"], "algebra": [_LARGE]},
                 id="algebra-set-5000-digits"),
    pytest.param({"n": 1, "r1": ["1"], "r2": ["1"], "algebra": [_DEEP]},
                 id="algebra-set-1000-deep"),
])
def test_loaders_raise_only_format_errors_on_decoded_extremes(doc):
    # the decoded values at the interpreter's limits that no JSON text turns
    # into: each loader loads them or raises FormatError
    for load in (load_frame, lambda d: load_valuation(d, 2), load_worldmap):
        try:
            load(doc)
        except FormatError:
            pass


def test_analyze_examples():
    sk = analyze(univ_chain(2))
    assert len(sk.clusters) == 1 and sk.height == 1

    sk = analyze(tack("both", 2))
    assert len(sk.clusters) == 2 and sk.height == 2
    assert sk.clusters == (0b01111, 0b10000)

    sk = analyze(lift(chain(3)))
    assert len(sk.clusters) == 3 and sk.height == 3
    assert sk.depth[0] == 3 and sk.depth[2] == 1


def test_analyze_chain_longer_than_the_recursion_limit():
    sk = analyze(lift(chain(1500)))
    assert sk.height == 1500 and sk.depth[0] == 1500 and sk.depth[-1] == 1


def test_frame_property_examples():
    from kripkebench.constructions import product
    pr = product(chain(2), chain(2))
    assert frame_property(pr, "com") and frame_property(pr, "cr")
    assert frame_property(lintgrz(2), "tense")
    # a transitive union always satisfies the chain-collapse condition; the
    # genuine failure needs a non-transitive union, e.g. a product of clusters
    assert frame_property(lift(chain(4)), "rp", (1,))
    assert not frame_property(rect(2, 2), "rp", (1,))
    assert frame_property(rect(2, 2), "rp", (3,))
    # the path 0 -> 1 -> 2 -> 3 refutes rp(0..2); the shortcut 0 -> 2 mends
    # rp(2), but 1 -> 2 -> 3 still refutes rp(1)
    for r1, verdicts in (((0b0010, 0b0100, 0b1000, 0), [False, False, False, True]),
                         ((0b0110, 0b0100, 0b1000, 0), [False, False, True, True])):
        path = Frame(4, r1, (0, 0, 0, 0))
        assert [frame_property(path, "rp", (m,)) for m in range(4)] == verdicts
    assert frame_property(univ_chain(3), "preorder", (1,))
    assert frame_property(univ_chain(3), "universal", (2,))
    assert frame_property(univ_chain(3), "linear", (1,))
    assert frame_property(univ_chain(3), "poset", (1,))
    assert not frame_property(univ_chain(3), "poset", (2,))
    assert frame_property(lift(cluster(2)), "equivalence", (1,))
    assert frame_property(rect(3, 3), "prenoetherian")
    with pytest.raises(UnknownProperty):
        frame_property(rect(2, 2), "nonsense")
    with pytest.raises(UnknownProperty):
        frame_property(rect(2, 2), "preorder", (3,))


@pytest.mark.parametrize("m, ok", [(1.7, False), ("x", False), (-1, False),
                                   (True, False), (1, True)])
def test_rp_takes_only_a_nonnegative_int(m, ok):
    if ok:
        assert frame_property(lift(chain(3)), "rp", (m,))
        return
    with pytest.raises(UnknownProperty, match="rp needs"):
        frame_property(lift(chain(3)), "rp", (m,))


@st.composite
def sparse_frames(draw, max_n):
    """Frames whose relations keep each pair with probability 1/4, so that
    long paths without shortcuts are common."""
    n = draw(st.integers(0, max_n))
    rows = [draw(st.integers(0, (1 << n) - 1)) & draw(st.integers(0, (1 << n) - 1))
            for _ in range(2 * n)]
    return Frame(n, tuple(rows[:n]), tuple(rows[n:]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(frames(max_n=6), sparse_frames(6)), st.integers(0, 3))
def test_rp_matches_the_path_oracle(f, m):
    assert frame_property(f, "rp", (m,)) is oracle.rp_holds(f, m)


@pytest.mark.parametrize("prop", ["preorder", "equivalence", "linear", "poset",
                                  "universal"])
@pytest.mark.parametrize("mod", [True, 1.0, 2.0, 0, 3])
def test_modality_parameter_is_the_int_1_or_2(prop, mod):
    with pytest.raises(UnknownProperty, match="needs a modality parameter"):
        frame_property(rect(2, 2), prop, (mod,))


def test_restriction_examples():
    g = as_general(univ_chain(2))
    r = restriction(g, {1})
    assert r.frame == Frame(1, (1,), (1,))
    assert r.algebra == (0, 1)

    t = as_general(tack("both", 2))
    bottom = restriction(t, 0b01111)
    assert bottom.frame == rect(2, 2)

    with pytest.raises(EmptyRestriction):
        restriction(g, 0)


def test_restriction_keeps_one_element_per_set_of_atoms_meeting_it():
    # C13's falsifiable companion: restricting to a cluster or an up-set Y
    # (the world-sets whose restriction is always a general frame) leaves
    # 2^(number of atoms meeting Y) elements, not just 2 on a singleton
    rng = random.Random(13)
    sizes = set()
    for n in range(1, 5):
        for u in all_preorders(n):
            F = lift(u)
            clusters = {sum(1 << b for b in range(n) if u.rows[a] >> b & 1
                            and u.rows[b] >> a & 1) for a in range(n)}
            upsets = {Y for Y in range(1, 1 << n)
                      if all(u.rows[a] & ~Y == 0 for a in worlds_of(Y))}
            for k in (0, 1, 1, 2):
                gens = [rng.randrange(1 << n) for _ in range(k)]
                G = GeneralFrame(F, generated_subalgebra(F, gens).elements)
                atoms = [a for a in G.algebra if a and not any(
                    b and b != a and b & a == b for b in G.algebra)]
                assert sum(atoms) == F.full
                for Y in sorted(clusters | upsets):
                    meeting = sum(1 for a in atoms if a & Y)
                    sizes.add(meeting)
                    assert len(restriction(G, Y).algebra) == 1 << meeting, (u, gens, Y)
    assert sizes == {1, 2, 3, 4}


def test_world_sets_are_read_one_way():
    t = as_general(tack("both", 2))
    assert restriction(t, "11110") == restriction(t, 0b01111) == \
        restriction(t, [0, 1, 2, 3])
    for Y in ("1", "111100", "1111x", True, 1.0, -1, 0b100000, [-1], [5],
              [True], ["0"]):
        with pytest.raises(FormatError):
            restriction(t, Y)
        with pytest.raises(FormatError):
            generated_subframe(t, Y)


def test_restriction_warn_path(caplog):
    # {p0 -> {0}} generates an algebra without the singleton {1}
    frame = lift(chain(2))
    g = GeneralFrame(frame, (0b00, 0b01, 0b10, 0b11))
    sub = GeneralFrame(frame, (0b00, 0b11))
    import logging
    with caplog.at_level(logging.WARNING, logger="kripkebench.frames"):
        r = restriction(sub, {1})
    assert any("not admissible" in rec.message for rec in caplog.records)
    assert len(r.algebra) == 2


def test_generated_subframe_examples():
    sub, reach = generated_subframe(tack("both", 2), {4})
    assert sub == singleton() and reach == 0b10000

    sub, reach = generated_subframe(lift(chain(3)), {1})
    assert sub == lift(chain(2)) and reach == 0b110

    sub, reach = generated_subframe(lintgrz(3), {2})
    assert sub == lintgrz(3) and reach == 0b111

    with pytest.raises(EmptyRestriction):
        generated_subframe(lift(chain(2)), 0)


def test_generated_subframe_idempotent_and_least():
    f = tack("1", 2)
    sub, reach = generated_subframe(f, {0})
    again, reach2 = generated_subframe(sub, {0})
    assert again == sub
    union = f.union()
    # reach is closed under the union relation and contains the seed
    for w in worlds_of(reach):
        assert union[w] & ~reach == 0
    assert reach & 1
    # oracle: reach is the least closed superset of the seed
    closed_supersets = [
        s for s in range(1 << f.n)
        if s & 1 and all(union[w] & ~s == 0 for w in worlds_of(s))]
    least = (1 << f.n) - 1
    for s in closed_supersets:
        least &= s
    assert reach == least and reach in closed_supersets


def test_lift_unimodal_examples():
    assert lift(uniframe(2, ["11", "01"])) == lift(chain(2))
    assert lift(uniframe(1, ["1"])) == singleton()
    assert lift(uniframe(3, ["111", "111", "111"])) == lift(cluster(3))
    with pytest.raises(FormatError):
        uniframe(2, ["11"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(frames(max_n=5))
def test_height_is_max_depth_and_depth_antitone(f):
    sk = analyze(f)
    assert sk.height == max(sk.depth)
    # oracle: longest cluster chain by brute-force enumeration
    k = len(sk.clusters)
    reach = [sk.order[c] for c in range(k)]
    best = 0
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            if all(reach[a] >> b & 1 or reach[b] >> a & 1
                   for a, b in combinations(combo, 2)):
                best = max(best, size)
    assert sk.height == best
    # depth decreases strictly along cross-cluster edges
    union = f.union()
    for a in range(f.n):
        for b in worlds_of(union[a]):
            if sk.cluster_index[a] != sk.cluster_index[b]:
                assert sk.depth[a] > sk.depth[b]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(frames(max_n=4))
def test_closure_is_reflexive_transitive(f):
    c = rt_closure(f.union(), f.n)
    for i in range(f.n):
        assert c[i] >> i & 1
    from kripkebench.frames import compose_rows, is_subrelation
    assert is_subrelation(compose_rows(c, c), c)


@settings(max_examples=300, deadline=None)
@given(frames(min_n=2, max_n=5), st.data())
def test_twins_iff_the_swap_is_an_automorphism(f, data):
    v = data.draw(st.integers(0, f.n - 1))
    w = data.draw(st.integers(0, f.n - 1).filter(lambda x: x != v))
    swap = list(range(f.n))
    swap[v], swap[w] = w, v
    assert twins(f.r1, v, w) == (pull_rows(f.r1, swap) == f.r1)


def test_twins_need_every_clause():
    # one clause broken at a time, for worlds 0 and 1
    assert not twins((0b100, 0b000, 0b000), 0, 1)   # rows differ outside
    assert not twins((0b01, 0b00), 0, 1)            # one loop
    assert not twins((0b10, 0b00), 0, 1)            # one cross edge
    assert not twins((0, 0, 0b001), 0, 1)           # a third world sees one
    assert twins((0b11, 0b11), 0, 1) and twins((0b01, 0b10), 0, 1)
    assert twins((0b10, 0b01), 0, 1) and twins((0b100, 0b100, 0b011), 0, 1)


def test_bitstring_helpers():
    assert bits_of("0110") == 0b0110
    assert bitstring(0b0110, 4) == "0110"
    assert mask_of([0, 2]) == 0b101
    assert worlds_of(0b101) == [0, 2]
    with pytest.raises(FormatError):
        bits_of("012")


@settings(max_examples=200, deadline=None)
@given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 70))
def test_bitstring_round_trips_the_low_bits(mask, n):
    # world i is character i, and only the n low bits are written
    s = bitstring(mask, n)
    assert s == "".join("1" if mask >> i & 1 else "0" for i in range(n))
    assert bits_of(s) == mask & (1 << n) - 1


@pytest.mark.parametrize("s, bad", [("012", "2"), ("1_0", "_"), (" 10", " "),
                                    ("+1", "+"), ("10 ", " "), ("0b1", "b"),
                                    ("1٠", "٠"), ("x1y", "x")])
def test_bits_of_names_the_first_non_binary_digit(s, bad):
    # int() would read the underscore, the spaces, the sign and the Arabic-
    # Indic zero; a bitstring holds only 0 and 1
    with pytest.raises(FormatError) as err:
        bits_of(s)
    assert str(err.value) == f"non-binary digit {bad!r} in bitstring {s!r}"


def test_store_frame_is_stable_bytes():
    f = tack("both", 2)
    assert store_frame(f) == store_frame(tack("both", 2))
    doc = json.loads(store_frame(f))
    assert list(doc) == ["n", "r1", "r2"]

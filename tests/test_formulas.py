import copy
import gc
import pickle
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from kripkebench.algebra import beta_formula
from kripkebench.checks import PROFILE_ROWS, beta_corpus
from kripkebench.constructions import chain, lift
from kripkebench import formulas as F
from kripkebench.errors import ArityMismatch, FormulaSyntaxError, UnknownName
from kripkebench.formulas import (NAMED_FORMULAS, And, Bot, Box, Dia, Iff,
                                  Imp, Not, Or, Top, Var, box_star, box_v,
                                  conj, dia_star, dia_v, named_formula, nodes,
                                  parse, print_formula, substitute,
                                  swap_modalities, variables)
from kripkebench.semantics import Model, eval_formula, refutes_witness, valid

import oracle
from conftest import formulas, frames, valuations

GOLDEN = Path(__file__).parent / "data" / "formula_golden.txt"


def test_parse_examples():
    assert parse("p0 -> [1](<1>p0 | false)") == \
        Imp(Var(0), Box(1, Or(Dia(1, Var(0)), Bot())))
    assert parse("<*>p0") == dia_star(Var(0))
    assert parse("<v>p3") == dia_v(Var(3))
    assert parse("true & ~p2") == And(Top(), Not(Var(2)))
    # equal group text at two places, and two groups that differ in their
    # first token only
    assert parse("((p0 & p1) | (p2 & p1)) -> ((p0 & p1) | (p2 & p1))") == \
        Imp(*[Or(And(Var(0), Var(1)), And(Var(2), Var(1)))] * 2)


def test_parse_error_offset_and_expected():
    with pytest.raises(FormulaSyntaxError) as e:
        parse("p0 p1")
    assert e.value.offset == 3
    assert "&" in e.value.expected and e.value.found == "p1"
    with pytest.raises(FormulaSyntaxError):
        parse("(p0 -> ")
    with pytest.raises(FormulaSyntaxError):
        parse("p0 -> @")


def test_precedence_and_associativity():
    # ~/modal > & > | > -> > <->, implication right-associative
    assert parse("~p0 & p1 | p2 -> p3 <-> p4") == \
        Iff(Imp(Or(And(Not(Var(0)), Var(1)), Var(2)), Var(3)), Var(4))
    assert parse("p0 -> p1 -> p2") == Imp(Var(0), Imp(Var(1), Var(2)))
    assert parse("p0 & p1 & p2") == And(And(Var(0), Var(1)), Var(2))
    assert parse("<1>p0 & p1") == And(Dia(1, Var(0)), Var(1))


def test_print_examples():
    assert print_formula(Bot()) == "false"
    assert print_formula(Dia(2, Var(3))) == "<2>p3"
    assert print_formula(And(Var(0), Var(1))) == "(p0 & p1)"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(formulas())
def test_parse_print_round_trip(f):
    assert parse(print_formula(f)) is f


# token boundaries of printed text, for spreading whitespace between tokens
_PRINTED_TOKEN = re.compile(r"<->|->|<.>|\[.\]|p[0-9]+|true|false|\S")
_SPACES = ["", "", " ", "  ", "\t", "\n", "\u00a0"]
_PIECES = ["p0", "p12", "true", "false", "~", "&", "|", "->", "<->", "<1>",
           "[2]", "<v>", "[*]", "(", "(", ")", ")", "x", "<3>", "-", "\u00e9",
           "p", "1", "<", ">"]


def assert_parsers_agree(text):
    """``parse`` gives the reference parser's node, or its error."""
    try:
        want = oracle.reference_parse(text)
    except FormulaSyntaxError as e:
        with pytest.raises(FormulaSyntaxError) as got:
            parse(text)
        g = got.value
        assert (str(g), g.offset, g.expected, g.found) == (str(e), e.offset, e.expected, e.found)
    else:
        assert parse(text) is want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(formulas(max_depth=4),
       st.lists(st.tuples(st.sampled_from((dia_star, box_star, dia_v, box_v)),
                          formulas(max_depth=2)), max_size=2),
       st.randoms(use_true_random=False))
def test_parse_agrees_with_reference_on_printed_text(f, wraps, rnd):
    # starred and v operators repeat group text; whitespace of random kinds
    # goes between the tokens
    for wrap, g in wraps:
        f = wrap(Imp(f, g))
    tokens = _PRINTED_TOKEN.findall(print_formula(f)) + [""]
    assert_parsers_agree("".join(rnd.choice(_SPACES) + t for t in tokens))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_PIECES)), max_size=12))
def test_parse_agrees_with_reference_on_token_strings(pieces):
    assert_parsers_agree("".join(space + piece for space, piece in pieces))


def test_parse_descends_once_per_distinct_group(monkeypatch):
    f = named_formula("bh", [4, "*"])
    text = print_formula(f)
    assert len(text) > 240_000 and len(nodes(f)) == 85
    descents = 0
    formula = F._Parser.formula

    def counted(self, *floor):
        # the whole text and each group are entered at the start or after
        # a (; an operand of an infix operator is entered after that
        # operator and a space
        nonlocal descents
        start = self.pos - len(self.tok)
        descents += start == 0 or self.text[start - 1] == "("
        return formula(self, *floor)

    monkeypatch.setattr(F._Parser, "formula", counted)
    assert parse(text) is f
    # one descent for the whole text, then one for each distinct group
    # text, each of which is a distinct subformula
    assert descents <= len(nodes(f))


# the parser's memo finds a group by its head (at most 16 characters) and
# its length, so these siblings share heads and some share lengths
_SIBLING = "(" + "p0 & " * 10


@pytest.mark.parametrize("text", [
    # siblings that differ only in their last token, some of one length
    " | ".join(f"{_SIBLING}{last})" for last in ("p1", "p2", "p1", "true", "p2", "p13")),
    f"{_SIBLING}<1>p1) -> {_SIBLING}<2>p1) -> {_SIBLING}<1>p1)",
    # repeats that differ only in whitespace
    "(p0 & <1>p1) -> (p0 &\t<1>p1) | (p0\n& <1>p1) & (p0 & <1>p1)",
    "((p0 | p1)) & ( (p0 | p1) ) & ((p0 | p1)\n)",
    # a repeat followed at once by an infix operator or )
    "((p0 & p1)&(p0 & p1))|(p0 & p1)->(p0 & p1)<->((p0 & p1))",
    "(p2)&(p2)&~(p2)",
    # a repeat, then an error just past it
    "(p0 & p1) & (p0 & p1) p2",
    "(p0 & p1) & (p0 & p1))",
    "(p0 & p1) & (p0 & p1)(",
    # a repeat of a group that is never closed
    "(p0 & p1) & (p0 & p1",
    "(p0 & p1) | ((p0 & p1)",
    "(p0 & p1) & (p0 & p1 | p2",
    # unrecognised input after a syntax error, and after a repeat
    "p0 p1 (p0 & p1) @",
    "(p0 & p1) & (p0 & p1) ) é",
    # a stray character after a repeat the parser jumped
    "(p0 & p1) & (p0 & p1) @",
    # a p with no digits, and a modality no token knows
    "p",
    "p0 & p",
    "<3>p0",
    # unrecognised input past the nesting limit
    pytest.param("(" * 400 + "p0" + ")" * 400 + " @", id="400 levels, then @"),
    # a variable index of more digits than int() converts
    pytest.param("p" + "1" * 4301, id="p<4301 digits>"),
    pytest.param("p" + "1" * 5000 + " & p0", id="p<5000 digits> & p0"),
])
def test_parse_memo_corners(text):
    assert_parsers_agree(text)


def test_successful_parse_never_looks_for_unrecognised_input(monkeypatch):
    # a parse that succeeds has read each character as a token or jumped
    # over a repeat of text it read, so only a failed parse runs _VALID
    def spy(text):
        raise AssertionError("_VALID ran")

    monkeypatch.setattr(F, "_VALID", spy)
    wanted = [named_formula("bh", [4, "*"])]
    wanted += [named_formula(name, list(args)) for _, (name, args) in PROFILE_ROWS]
    for f in wanted:
        assert parse(print_formula(f)) is f
    with pytest.raises(AssertionError, match="_VALID ran"):
        parse("p0 p1")


def _second_parse_peak(text):
    """The tracemalloc peak of parsing ``text`` with its nodes interned."""
    first = parse(text)
    tracemalloc.start()
    try:
        assert parse(text) is first
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_memory_follows_the_text():
    # 230 levels of parentheses around a 20,000-part conjunction: keys that
    # copy each group's text would hold depth × length characters (41.6 MB
    # here), where a memo of offsets holds a few hundred bytes per group
    body = " & ".join(f"p{i}" for i in range(20_000))
    deep = "(p1 & " * 230 + body + ")" * 230
    flat_peak, deep_peak = _second_parse_peak(body), _second_parse_peak(deep)
    assert deep_peak < 2 << 20
    assert deep_peak - flat_peak <= 256 * (len(deep) - len(body))


def test_substitute_examples():
    assert substitute(Dia(1, Var(0)), {0: Bot()}) == Dia(1, Bot())
    assert substitute(And(Var(0), Var(1)), {0: Var(1)}) == And(Var(1), Var(1))
    template = named_formula("presym", [1])
    renamed = substitute(template, {0: Var(5), 1: Var(6)})
    assert variables(renamed) == frozenset({5, 6})
    # renaming back is the identity
    assert substitute(renamed, {5: Var(0), 6: Var(1)}) == template


@settings(max_examples=100, deadline=None, derandomize=True)
@given(formulas(max_depth=5), formulas(max_depth=4), formulas(max_depth=4))
def test_substitution_depth_bound(f, g0, g1):
    sub = {0: g0, 1: g1}
    bound = f.depth + max(g0.depth, g1.depth)
    assert substitute(f, sub).depth <= bound


def test_modal_depth_examples():
    assert parse("p0 & ~p1").depth == 0
    assert parse("<1>[2]p0").depth == 2
    assert named_formula("bh", [2, 1]).depth == 3


def test_named_formula_examples():
    assert named_formula("bh", [0, 1]) == Bot()
    assert named_formula("dd") == Imp(
        And(Dia(2, Var(0)), Dia(2, Var(1))),
        Dia(2, And(Dia(1, Var(0)), Dia(1, Var(1)))))
    presym1 = named_formula("presym", [1])
    assert variables(presym1) == frozenset({0, 1})
    assert named_formula("presym") == And(presym1, named_formula("presym", [2]))


def test_named_formula_errors():
    with pytest.raises(UnknownName):
        named_formula("nope")
    with pytest.raises(ArityMismatch):
        named_formula("bh", [1])
    with pytest.raises(ArityMismatch):
        named_formula("mck", [3])
    with pytest.raises(ArityMismatch):
        named_formula("presym", [1, 2])
    for name, params in (("com", [1]), ("dot3", []), ("bh", [1, 1, 1]),
                         ("mck", [True]), ("mck", [1.0]), ("bh", [1, "12"]),
                         ("dot3", ["v"]), ("s5_ax", ["*"]), ("presym", [0])):
        with pytest.raises(ArityMismatch):
            named_formula(name, params)
    # a bh height or rp index is an int, not a bool, or a digit string
    for count in (True, False, 1.0, 1.9, -1, "-1", " 1", "1.0", "", "\u00b2",
                  None, [1]):
        for name, params in (("bh", [count, 1]), ("rp", [count, "v"])):
            with pytest.raises(ArityMismatch):
                named_formula(name, params)
    assert named_formula("mck", ["2"]) is named_formula("mck", [2])
    assert named_formula("s5_ax", ["1"]) is named_formula("s5_ax", [1])
    assert named_formula("bh", ["4", "*"]) is named_formula("bh", [4, "*"])
    assert named_formula("rp", ["2", "v"]) is named_formula("rp", [2, "v"])


def test_registry_counts_past_the_conversion_limit():
    # int() converts at most 4300 digits, and repr() writes no longer int
    with pytest.raises(ArityMismatch, match="bh height has more than 4300 digits"):
        named_formula("bh", ["1" * 5000, "1"])
    with pytest.raises(ArityMismatch, match="too large to print"):
        named_formula("bh", [-10 ** 5000, "1"])
    with pytest.raises(ArityMismatch, match="too large to print"):
        named_formula("mck", [10 ** 5000])
    with pytest.raises(ArityMismatch, match="modality must be one of .* too large to print"):
        named_formula("bh", ["1", 10 ** 5000])


def test_swap_modalities():
    assert swap_modalities(parse("<1>[2]p0")) == parse("<2>[1]p0")
    f = named_formula("match2_ax")
    assert swap_modalities(swap_modalities(f)) == f


def _golden_lines():
    for line in GOLDEN.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, params, text = line.split("|", 2)
        args = [int(p) if p.isdigit() else p for p in params.split()] if params else []
        yield name, args, text


def test_golden_transcriptions():
    count = 0
    for name, args, text in _golden_lines():
        built = named_formula(name, args)
        assert parse(text) == built, (name, args)
        if "<v>" not in text and "[v]" not in text \
                and "<*>" not in text and "[*]" not in text:
            assert print_formula(built) == text, (name, args)
        count += 1
    assert count >= 30


def test_every_registry_name_is_instantiable():
    instantiations = {
        "bh": [1, 1], "rp": [1, "v"], "presym": [], "mck": [1], "dot3": [1],
        "triv_ax": [1], "s4_ax": [1], "s5_ax": [1],
    }
    for name in NAMED_FORMULAS:
        named_formula(name, instantiations.get(name, []))


def shared_formulas():
    """Formulas with shared node objects: the star connectives, and one
    subformula on both sides of a connective."""
    base = formulas(max_depth=4, reach=True)
    return st.one_of(
        base, base.map(dia_star), base.map(box_star),
        st.tuples(base, base).map(
            lambda t: Iff(dia_star(t[0]), And(t[0], box_star(t[1])))))


def _certificates():
    return [(model, beta_formula(model, r).beta) for _, model, r in beta_corpus()]


def assert_node_order(f):
    order = nodes(f)
    position = {id(g): i for i, g in enumerate(order)}
    assert len(position) == len(order)
    assert set(position) == oracle.node_ids(f)
    assert order[-1] is f
    for i, g in enumerate(order):
        assert all(position[id(c)] < i for c in oracle.children(g))
    keys = set()
    oracle.tree_key(f, keys)
    assert len(order) == len(keys)  # one node per distinct subformula


def assert_walks_agree(f, frame, valuation):
    sub = {0: Dia(1, Var(2)), 2: Not(Var(0))}
    assert variables(f) == oracle.tree_variables(f)
    assert f.depth == oracle.tree_depth(f)
    key = oracle.tree_key
    assert key(substitute(f, sub)) == key(oracle.tree_substitute(f, sub))
    assert key(swap_modalities(f)) == key(oracle.tree_swap(f))
    assert print_formula(f) == oracle.tree_print(f)
    assert eval_formula(Model(frame, valuation), f) == \
        oracle.extension(frame, valuation, f)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_formulas())
def test_nodes_lists_each_object_once_children_first(f):
    assert_node_order(f)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_formulas(), frames(max_n=3), st.data())
def test_walks_agree_with_tree_oracles(f, frame, data):
    assert_walks_agree(f, frame, data.draw(valuations(frame.n, max_vars=4)))


def test_walks_agree_with_tree_oracles_on_certificates():
    for model, beta in _certificates():
        assert_node_order(beta)
        assert_walks_agree(beta, model.kripke, dict(model.valuation))


def test_rebuilding_keeps_sharing():
    for _, beta in _certificates():
        assert substitute(beta, {}) is beta
        assert swap_modalities(swap_modalities(beta)) is beta
        assert len(nodes(swap_modalities(beta))) == len(nodes(beta))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_formulas())
def test_rebuilding_gives_back_the_interned_node(f):
    assert substitute(f, {}) is f
    assert swap_modalities(swap_modalities(f)) is f
    assert oracle.tree_map(f, lambda v: v, lambda i: i) is f


def test_fields_must_be_ints():
    live = Dia(1, Var(1))  # its key equals that of Dia(True, Var(1))
    for build in (lambda: Var(True), lambda: Var(1.0), lambda: Var(-1),
                  lambda: Dia(True, Var(1)), lambda: Box(1.0, Var(1)),
                  lambda: Dia(3, Var(1)), lambda: Box(0, Var(1))):
        with pytest.raises(ValueError):
            build()
    assert Dia(1, Var(1)) is live and print_formula(live) == "<1>p1"


def test_nodes_are_immutable_and_copy_as_themselves():
    f = named_formula("presym")
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert repr(f) == str(f) == print_formula(f)
    with pytest.raises(AttributeError):
        f.left = Top()
    with pytest.raises(AttributeError):
        del f.right
    with pytest.raises(AttributeError):
        f.depth = 0


def test_death_callback_removes_only_its_own_entry():
    f = Var(4321)
    key = (Var, 4321)
    own = F._table[key]
    stale = F._Ref(Top())  # a dead node's reference whose key was taken again
    stale.key = key
    F._forget(stale)
    assert F._table[key] is own and Var(4321) is f
    probe = weakref.ref(f)
    del f
    gc.collect()
    assert probe() is None and key not in F._table


def test_concurrent_construction_gives_one_node():
    def build(out):
        for i in range(300):
            out.append(And(Dia(1 + i % 2, Var(5000 + i)), Not(Var(5001 + i))))

    results = [[] for _ in range(4)]
    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 300 for out in results)
    for made in zip(*results):
        assert all(m is made[0] for m in made)


def test_construction_replaces_a_dead_entry_once(monkeypatch):
    # a dead node's entry whose death callback has not run yet: four
    # threads that all missed the lookup must agree on one new node, and
    # the table must hold that node's entry in the dead one's place
    key = (Var, 4324)
    dead = F._Ref(Var(4324))
    dead.key = key
    gc.collect()
    assert dead() is None and key not in F._table
    F._table[key] = dead
    barrier = threading.Barrier(4)

    class Waiting(F._Ref):  # each thread records only once all have missed
        __slots__ = ()

        def __new__(cls, node, callback):
            barrier.wait(timeout=10)
            return super().__new__(cls, node, callback)

    monkeypatch.setattr(F, "_Ref", Waiting)
    made = []
    threads = [threading.Thread(target=lambda: made.append(Var(4324))) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and len(made) == 4
    assert all(m is made[0] for m in made)
    assert F._table[key]() is made[0] and Var(4324) is made[0]


def test_death_callback_keeps_a_replacement_made_during_it(monkeypatch):
    # the callback checks and deletes under the lock, so a construction that
    # replaces the dead entry between the two waits for it; without the lock
    # the callback would delete the new node's entry
    key = (Var, 4325)
    dead = F._Ref(Var(4325))
    dead.key = key
    checked, replaced = threading.Event(), threading.Event()

    class Table(dict):  # the callback pauses between its check and its delete
        def get(self, k, default=None):
            found = dict.get(self, k, default)
            if found is dead and not checked.is_set():
                checked.set()
                replaced.wait(timeout=0.5)
            return found

    monkeypatch.setattr(F, "_table", Table(F._table))
    F._table[key] = dead
    callback = threading.Thread(target=F._forget, args=(dead,))
    callback.start()
    assert checked.wait(timeout=10)
    f = Var(4325)
    replaced.set()
    callback.join(timeout=10)
    assert not callback.is_alive()
    assert F._table[key]() is f and Var(4325) is f


def test_locked_recording_keeps_a_node_made_meanwhile(monkeypatch):
    # a construction locks because it found a dead entry, which its death
    # callback removes before the lock is taken; while the construction
    # holds the lock and has found the key free, another thread builds the
    # key without the lock: both must get one node, and the table must
    # refer to it
    key = (Var, 4326)
    dead = F._Ref(Var(4326))
    dead.key = key
    gc.collect()
    assert dead() is None and key not in F._table
    made = []

    class Table(dict):
        def _meanwhile(self, k, found):
            if k == key and found is None and F._lock._is_owned() and not made:
                other = threading.Thread(target=lambda: made.append(Var(4326)))
                other.start()
                other.join(timeout=10)

        def get(self, k, default=None):
            found = dict.get(self, k, default)
            self._meanwhile(k, found)
            return found

        def setdefault(self, k, value):
            found = dict.get(self, k)
            entry = dict.setdefault(self, k, value)
            if entry is dead:
                F._forget(dead)  # the callback runs before the lock is taken
            self._meanwhile(k, found)
            return entry

    monkeypatch.setattr(F, "_table", Table(F._table))
    F._table[key] = dead
    f = Var(4326)
    assert len(made) == 1 and made[0] is f
    assert F._table[key]() is f and Var(4326) is f


def test_print_memory_follows_the_output():
    f = conj([Var(i) for i in range(3000)])
    tracemalloc.start()
    try:
        text = print_formula(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 28000 and peak < 2 << 20


def test_deep_and_wide_formulas_go_through_every_walk():
    def negated(f, times=5000):
        for _ in range(times):
            f = Not(f)
        return f

    deep = negated(Dia(1, Var(0)))
    text = "~" * 5000 + "<1>p0"
    assert len(nodes(deep)) == 5002
    assert variables(deep) == {0} and deep.depth == 1
    assert print_formula(deep) == str(deep) == text
    assert parse(text) is deep and hash(parse(text)) == hash(deep)
    assert substitute(deep, {0: Var(1)}) is negated(Dia(1, Var(1)))
    assert swap_modalities(deep) is negated(Dia(2, Var(0))) != deep

    def part(i, leaf):
        return Imp(leaf(i % 3), Dia(1 + i % 2, leaf(i % 3)))

    parts = [part(i, Var) for i in range(3000)]
    wide = conj(parts)
    wide_text = print_formula(parts[0])
    for p in parts[1:]:
        wide_text = f"({wide_text} & {print_formula(p)})"
    assert variables(wide) == {0, 1, 2} and wide.depth == 1
    assert print_formula(wide) == wide_text
    assert substitute(wide, {0: Top()}) is \
        conj(part(i, lambda v: Var(v) if v else Top()) for i in range(3000))
    assert swap_modalities(wide) is \
        conj(Imp(Var(i % 3), Dia(2 - i % 2, Var(i % 3))) for i in range(3000))

    frame = lift(chain(2))  # reflexive, so every part holds
    m = Model(frame, {0: 0b10, 1: 0b01})
    assert eval_formula(m, deep) == eval_formula(m, Dia(1, Var(0))) == 0b11
    assert eval_formula(m, wide) == 0b11
    assert valid(frame, wide) and refutes_witness(frame, wide) is None
    assert not valid(frame, deep)
    assert refutes_witness(frame, deep) == refutes_witness(frame, Dia(1, Var(0)))

    probe = weakref.ref(negated(Box(2, Var(4322))))
    gc.collect()
    assert probe() is None


def test_parser_depth():
    # a run of prefix operators is read in a loop, whatever its length
    assert print_formula(parse("~" * 1200 + "p0")) == "~" * 1200 + "p0"
    assert parse("<1>[v]" * 600 + "p0").depth == 1200
    assert parse("(" * 50 + "p0" + ")" * 50) == Var(0)
    # a parenthesis costs three interpreter frames, so about 330 levels parse
    body = "<1>p0 -> <1>p0 -> p1"
    assert parse("(" * 250 + body + ")" * 250) is parse(body)
    deep = "(" * 400 + "p0" + ")" * 400
    with pytest.raises(FormulaSyntaxError, match="^nesting too deep") as e:
        parse(deep)
    assert e.value.found == "(" and 0 < e.value.offset < 400
    # unrecognised input is reported ahead of the nesting error
    with pytest.raises(FormulaSyntaxError, match="^unrecognised input") as e:
        parse(deep + " @")
    assert e.value.found == "@" and e.value.offset == len(deep) + 1
    with pytest.raises(FormulaSyntaxError, match="^nesting too deep"):
        parse(" -> ".join(["p0"] * 2000))

"""Bimodal formula ASTs, text grammar, and the named-formula registry.

Formulas are immutable trees over the node kinds Var, Bot, Top, Not,
And, Or, Imp, Iff, Dia(modality), Box(modality).  The derived
connectives are expanded eagerly at construction time:

    dia_v(f)    =  <1>f | <2>f
    dia_star(f) =  f | dia_v(f) | dia_v(dia_v(f))
    box_v(f)    =  ~dia_v(~f)
    box_star(f) =  ~dia_star(~f)

so after construction only the listed node kinds occur.  ReachDia and
ReachBox are frame-level reachability operators used by the semantics
module; they are constructible programmatically but are not part of the
text grammar.

Formulas are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): a constructor looks its class and fields up in one
table of weak references and returns the live node with those fields if
there is one, so structurally equal formulas are one object.  ``==`` is
``is``, ``hash`` is O(1), neither recurses, and ``depth`` (the modal
depth) is recorded when a node is built.  A node that nothing else holds
is freed, and its death callback removes its own table entry.  Nodes are
immutable; copying or unpickling one returns the interned node.

A formula is a DAG of distinct subformulas.  ``nodes(f)`` lists each of
them once, children before parents and ``f`` last.  Every walk over a
formula -- ``variables``, ``substitute``, ``swap_modalities``,
``print_formula`` and evaluation in the semantics module -- is one loop
over that list that works each node out from its children's results, so
no walk recurses.  The parser is recursive descent over a one-pass
tokenizer and parses each distinct parenthesised group once per call, so
its work follows the distinct groups, not the length of the text.
Nesting past the recursion limit is a FormulaSyntaxError, unless it sits
only inside repeats of a group already parsed, which are not re-entered.
"""

from __future__ import annotations

import re
import threading
import weakref
from itertools import accumulate, islice, repeat
from typing import Mapping

from .errors import ArityMismatch, FormulaSyntaxError, UnknownName

# (class, *fields) -> weak reference to the one live node with those fields;
# children are fields, and a child's hash and == are its identity
_table: dict[tuple, _Ref] = {}
_lock = threading.RLock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """Death callback: drop the node's entry, unless a newer node has it."""
    if _table.get(ref.key) is ref:
        del _table[ref.key]


def _make(key: tuple, depth: int) -> Formula:
    """The node for ``key``, built and recorded unless another thread
    recorded it first; constructors call it when their lookup misses."""
    with _lock:
        ref = _table.get(key)
        node = ref and ref()
        if node is None:
            cls = key[0]
            node = object.__new__(cls)
            for name, value in zip(cls._fields, key[1:]):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "depth", depth)
            ref = _table[key] = _Ref(node, _forget)
            ref.key = key
    return node


class Formula:
    """A formula node.  Construction returns the one live node with the
    given class and fields, so ``==`` is ``is`` and ``hash`` is O(1);
    ``depth`` is the modal depth, recorded at construction."""

    __slots__ = ("depth", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __new__(cls):  # the kinds without fields; the others override it
        ref = _table.get((cls,))
        return ref and ref() or _make((cls,), 0)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return print_formula(self)


class Var(Formula):
    __slots__ = _fields = ("index",)

    def __new__(cls, index: int):
        if type(index) is not int or index < 0:
            raise ValueError(f"variable index must be a nonnegative int, got {index!r}")
        key = (cls, index)
        ref = _table.get(key)
        return ref and ref() or _make(key, 0)


class Bot(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = _fields = ("child",)
    _modal = 1  # what the node adds to its child's modal depth

    def __new__(cls, child: Formula):
        key = (cls, child)
        ref = _table.get(key)
        return ref and ref() or _make(key, child.depth + cls._modal)


class Not(_Unary):
    __slots__ = ()
    _modal = 0


class ReachDia(_Unary):
    """Diamond over the reflexive-transitive closure of r1 | r2."""

    __slots__ = ()


class ReachBox(_Unary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = _fields = ("mod", "child")

    def __new__(cls, mod: int, child: Formula):
        if type(mod) is not int or mod not in (1, 2):
            raise ValueError(f"modality must be the int 1 or 2, got {mod!r}")
        key = (cls, mod, child)
        ref = _table.get(key)
        return ref and ref() or _make(key, child.depth + 1)


class Dia(_Modal):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _table.get(key)
        return ref and ref() or _make(key, max(left.depth, right.depth))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


_BINARY = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def dia_v(f: Formula) -> Formula:
    return Or(Dia(1, f), Dia(2, f))


def box_v(f: Formula) -> Formula:
    return Not(dia_v(Not(f)))


def dia_star(f: Formula) -> Formula:
    dv = dia_v(f)
    return Or(f, Or(dv, dia_v(dv)))


def box_star(f: Formula) -> Formula:
    return Not(dia_star(Not(f)))


def conj(parts) -> Formula:
    """Left-folded conjunction; empty input gives true."""
    parts = list(parts)
    if not parts:
        return Top()
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    """Left-folded disjunction; empty input gives false."""
    parts = list(parts)
    if not parts:
        return Bot()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# number of children of each node kind, read as child, or left then right
_ARITY = {Var: 0, Bot: 0, Top: 0, Not: 1, Dia: 1, Box: 1, ReachDia: 1,
          ReachBox: 1, And: 2, Or: 2, Imp: 2, Iff: 2}


def nodes(f: Formula) -> list[Formula]:
    """Every distinct subformula of ``f`` once, children before parents and
    ``f`` last.  Every walk over a formula is a loop over this list, so
    none of them recurses."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack: list = [f]
    pop, mark, arity_of = stack.pop, seen.add, _ARITY  # hot loop: local names
    while stack:
        g = pop()
        if g is None:  # marker: the node below it has all its children done
            order.append(pop())
            continue
        if g not in seen:
            mark(g)
            arity = arity_of[type(g)]
            if arity == 0:
                order.append(g)
            elif arity == 1:
                stack += (g, None, g.child)
            else:
                stack += (g, None, g.right, g.left)
    return order


def variables(f: Formula) -> frozenset[int]:
    return frozenset(g.index for g in nodes(f) if type(g) is Var)


def modal_depth(f: Formula) -> int:
    return f.depth


def _rebuild(f: Formula, mapping: Mapping[int, Formula], swap: bool) -> Formula:
    """``f`` with each variable in the map replaced, and with the two
    modalities exchanged when ``swap``; each distinct node is rebuilt once."""
    new: dict[Formula, Formula] = {}
    for g in nodes(f):
        t = type(g)
        arity = _ARITY[t]
        if t is Dia or t is Box:
            r = t(3 - g.mod if swap else g.mod, new[g.child])
        elif arity == 2:
            r = t(new[g.left], new[g.right])
        elif arity == 1:
            r = t(new[g.child])
        elif t is Var:
            r = mapping.get(g.index, g)
        else:
            r = g
        new[g] = r
    return r


def substitute(f: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Simultaneous substitution; variables absent from the map are kept."""
    return _rebuild(f, mapping, False)


def swap_modalities(f: Formula) -> Formula:
    """Exchange the two modalities throughout the formula."""
    return _rebuild(f, {}, True)


_PREFIX = {Not: "~", ReachDia: "<+>", ReachBox: "[+]"}


def print_formula(f: Formula) -> str:
    """Canonical fully-parenthesised text.  parse(print(f)) is f for
    formulas of the grammar; ReachDia and ReachBox print as <+> and [+],
    which parse rejects.  A child's text is dropped once its last parent
    has used it, so memory follows the output, not the sum of the texts of
    all subformulas."""
    order = nodes(f)
    pending: dict[Formula, int] = dict.fromkeys(order, 0)  # parents to print
    for g in order:
        arity = _ARITY[type(g)]
        if arity == 1:
            pending[g.child] += 1
        elif arity == 2:
            pending[g.left] += 1
            pending[g.right] += 1
    text: dict[Formula, str] = {}

    def take(child: Formula) -> str:
        pending[child] -= 1
        return text[child] if pending[child] else text.pop(child)

    for g in order:
        t = type(g)
        arity = _ARITY[t]
        if arity == 2:
            s = f"({take(g.left)} {_BINARY[t]} {take(g.right)})"
        elif t is Dia:
            s = f"<{g.mod}>" + take(g.child)
        elif t is Box:
            s = f"[{g.mod}]" + take(g.child)
        elif arity == 1:
            s = _PREFIX[t] + take(g.child)
        elif t is Var:
            s = f"p{g.index}"
        else:
            s = "true" if t is Top else "false"
        text[g] = s
    return s


# --- parser -----------------------------------------------------------

# \S takes any other character as a one-character token that has no kind
_TOKEN_RE = re.compile(r"<->|->|<[12v*]>|\[[12v*]\]|p[0-9]+|true|false|[&|~()]|\S")
# token text -> kind; a token of two or more characters that is not listed
# is a variable, and "" marks the end of the text
_KIND = {"<->": "iff", "->": "imp", "&": "and", "|": "or", "~": "not",
         "(": "lpar", ")": "rpar", "true": "true", "false": "false", "": "end",
         **{f"<{t}>": "dia" for t in "12v*"}, **{f"[{t}]": "box" for t in "12v*"}}

_DEPTH_STEP = {"(": 1, ")": -1}
_ATOM_EXPECTED = frozenset({"false", "true", "var", "~", "<i>", "[i]", "("})
_INFIX_EXPECTED = frozenset({"&", "|", "->", "<->", ")", "end"})


class _Parser:
    """Recursive descent over the token list.  The inside of a group is a
    whole ``iff``, so equal group text gives the same node wherever it
    occurs: a group whose text was already parsed in this call is looked
    up, not parsed again."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _TOKEN_RE.findall(text)
        bad = [t for t in set(tokens).difference(_KIND) if len(t) == 1]
        if bad:
            i = min(map(tokens.index, bad))
            raise FormulaSyntaxError("unrecognised input", self.offset(i),
                                     _ATOM_EXPECTED | _INFIX_EXPECTED, tokens[i])
        tokens.append("")
        self.kinds = list(map(_KIND.get, tokens))  # None for a variable
        # parenthesis depth after each token: the ) of the ( at i is the
        # first later token back at depth depth[i] - 1
        self.depth = list(accumulate(map(_DEPTH_STEP.get, tokens, repeat(0))))
        self.i = 0
        self.groups: dict[str, Formula] = {}  # group text -> its node

    def offset(self, i: int) -> int:
        """Byte offset of token ``i``; the end marker is at the end."""
        pos = len(self.text)
        for m in islice(_TOKEN_RE.finditer(self.text), i, i + 1):
            pos = m.start()
        return len(self.text[:pos].encode("utf-8"))

    def fail(self, expected: frozenset[str]):
        raise FormulaSyntaxError("unexpected token", self.offset(self.i), expected,
                                 self.tokens[self.i] or "end of input")

    def parse(self) -> Formula:
        f = self.iff()
        if self.kinds[self.i] != "end":
            self.fail(_INFIX_EXPECTED - {")"})
        return f

    def iff(self) -> Formula:
        left = self.imp()
        if self.kinds[self.i] == "iff":
            self.i += 1
            return Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.kinds[self.i] == "imp":
            self.i += 1
            return Imp(left, self.imp())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.kinds[self.i] == "or":
            self.i += 1
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.kinds[self.i] == "and":
            self.i += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        # prefix operators are read in a loop, so a long run of them does
        # not nest the parser
        start = i = self.i
        while self.kinds[i] in ("not", "dia", "box"):
            i += 1
        self.i = i
        f = self.atom()
        for k in range(i - 1, start - 1, -1):
            kind, tok = self.kinds[k], self.tokens[k][1:-1]
            if kind == "not":
                f = Not(f)
            elif kind == "dia":
                f = _dia_at(_token(tok), f)
            else:
                f = _box_at(_token(tok), f)
        return f

    def atom(self) -> Formula:
        i = self.i
        kind = self.kinds[i]
        if kind is None:
            self.i += 1
            return Var(int(self.tokens[i][1:]))
        if kind == "lpar":
            try:
                end = self.depth.index(self.depth[i] - 1, i)
            except ValueError:  # an unclosed (: parsed on to its error
                end = key = None
            else:
                key = " ".join(self.tokens[i + 1:end])
            f = self.groups.get(key)
            if f is not None:
                self.i = end + 1
                return f
            self.i += 1
            f = self.iff()
            if self.kinds[self.i] != "rpar":
                self.fail(frozenset({")"}) | _INFIX_EXPECTED - {"end", ")"})
            self.i += 1
            self.groups[key] = f
            return f
        if kind == "true" or kind == "false":
            self.i += 1
            return Top() if kind == "true" else Bot()
        self.fail(_ATOM_EXPECTED)


def parse(text: str) -> Formula:
    """Parse formula text.  Precedence ~/modal > & > | > -> > <->;
    implication and equivalence associate to the right.  Each distinct
    parenthesised group is parsed once per call, so the work follows the
    distinct groups, not the length of the text.  Parentheses and chains
    of -> or <-> nested past the interpreter's recursion limit are a
    FormulaSyntaxError at the token where the parser ran out; a repeat of
    a group already parsed is not entered again, so text that passes the
    limit only inside such repeats may parse."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise FormulaSyntaxError("nesting too deep", parser.offset(parser.i), _ATOM_EXPECTED,
                                 parser.tokens[parser.i] or "end of input") from None


# --- named formulas ----------------------------------------------------

P = Var(0)
Q = Var(1)


def _token(value) -> int | str:
    if value in (1, 2):
        return value
    if value in ("1", "2"):
        return int(value)
    if value in ("v", "*"):
        return value
    raise ArityMismatch(f"modality token must be one of 1, 2, v, *; got {value!r}")


def _dia_at(tok, f: Formula) -> Formula:
    if tok == "v":
        return dia_v(f)
    if tok == "*":
        return dia_star(f)
    return Dia(tok, f)


def _box_at(tok, f: Formula) -> Formula:
    if tok == "v":
        return box_v(f)
    if tok == "*":
        return box_star(f)
    return Box(tok, f)


def _mod_param(params, i) -> int:
    m = params[i]
    if m in ("1", "2"):
        m = int(m)
    if m not in (1, 2):
        raise ArityMismatch(f"modality must be 1 or 2, got {params[i]!r}")
    return m


def _need(params, n, name):
    if len(params) != n:
        raise ArityMismatch(f"{name} takes {n} parameter(s), got {len(params)}")


def _bh(params):
    _need(params, 2, "bh")
    n = int(params[0])
    if n < 0:
        raise ArityMismatch("bh height must be nonnegative")
    tok = _token(params[1])
    f: Formula = Bot()
    for i in range(1, n + 1):
        f = Imp(Var(i), _box_at(tok, Or(_dia_at(tok, Var(i)), f)))
    return f


def _rp(params):
    _need(params, 2, "rp")
    m = int(params[0])
    if m < 0:
        raise ArityMismatch("rp index must be nonnegative")
    tok = _token(params[1])

    def iterated(times: int, f: Formula) -> Formula:
        for _ in range(times):
            f = _dia_at(tok, f)
        return f

    core: Formula = Var(m + 1)
    for i in range(m, 0, -1):
        core = And(Var(i), _dia_at(tok, core))
    antecedent = And(Var(0), _dia_at(tok, core))
    parts = [iterated(i, And(Var(i), Var(j)))
             for i in range(m + 2) for j in range(i + 1, m + 2)]
    parts += [iterated(i, And(Var(i), _dia_at(tok, Var(j + 1))))
              for i in range(m + 1) for j in range(i + 1, m + 1)]
    return Imp(antecedent, disj(parts))


def _presym_one(i: int) -> Formula:
    return Imp(Q, dia_star(And(Q, box_star(Imp(P, Box(i, Imp(Q, Dia(i, P))))))))


def _presym(params):
    if len(params) == 0:
        return And(_presym_one(1), _presym_one(2))
    _need(params, 1, "presym")
    return _presym_one(_mod_param(params, 0))


def _mck(params):
    _need(params, 1, "mck")
    tok = _token(params[0])
    return Imp(_box_at(tok, _dia_at(tok, P)), _dia_at(tok, _box_at(tok, P)))


def _dot3(params):
    _need(params, 1, "dot3")
    i = _mod_param(params, 0)
    return Imp(And(Dia(i, P), Dia(i, Q)),
               Or(Dia(i, And(P, Dia(i, Q))), Dia(i, And(Q, Dia(i, P)))))


def _triv(params):
    _need(params, 1, "triv_ax")
    i = _mod_param(params, 0)
    return Iff(P, Dia(i, P))


def _s4(params):
    _need(params, 1, "s4_ax")
    i = _mod_param(params, 0)
    return And(Imp(P, Dia(i, P)), Imp(Dia(i, Dia(i, P)), Dia(i, P)))


def _s5(params):
    _need(params, 1, "s5_ax")
    i = _mod_param(params, 0)
    return And(_s4([i]), Imp(P, Box(i, Dia(i, P))))


def _fixed(builder):
    def build(params):
        _need(params, 0, "this formula")
        return builder()
    return build


NAMED_FORMULAS: dict[str, tuple[str, object]] = {
    "bh": ("bh(n, tok): height axiom at a modality token", _bh),
    "rp": ("rp(m, tok): chain-collapse axiom at a modality token", _rp),
    "com": ("com: the two diamonds commute", _fixed(
        lambda: Iff(Dia(1, Dia(2, P)), Dia(2, Dia(1, P))))),
    "chr": ("chr: confluence (Church-Rosser) axiom", _fixed(
        lambda: Imp(Dia(1, Box(2, P)), Box(2, Dia(1, P))))),
    "presym": ("presym([i]): presymmetry axiom(s)", _presym),
    "conv": ("conv: converse axioms for tense frames", _fixed(
        lambda: And(Imp(Dia(1, Box(2, P)), P), Imp(Dia(2, Box(1, P)), P)))),
    "dd": ("dd: downward directedness of the second diamond", _fixed(
        lambda: Imp(And(Dia(2, P), Dia(2, Q)), Dia(2, And(Dia(1, P), Dia(1, Q)))))),
    "mck": ("mck(tok): McKinsey axiom at a modality token", _mck),
    "dot3": ("dot3(i): linearity axiom at a modality", _dot3),
    "sym2": ("sym2: symmetry axiom for the second modality", _fixed(
        lambda: Imp(P, Box(2, Dia(2, P))))),
    "match2_ax": ("match2_ax: first-diamond steps stay in second-diamond clusters",
                  _fixed(lambda: Imp(And(P, Dia(1, Q)), Dia(2, And(Q, Dia(2, P)))))),
    "match12_ax": ("match12_ax: second-diamond steps split into first-diamond or cluster",
                   _fixed(lambda: Imp(And(P, Dia(2, Q)),
                                      Or(Dia(1, Q), Dia(2, And(Q, Dia(2, P))))))),
    "cas": ("cas: chained-box collapse axiom", _fixed(
        lambda: Imp(box_star(Imp(Box(1, Imp(Box(1, P), box_star(P))), box_star(P))),
                    box_star(P)))),
    "u_incl": ("u_incl: first diamond included in the second", _fixed(
        lambda: Imp(Dia(1, P), Dia(2, P)))),
    "triv_ax": ("triv_ax(i): diamond is the identity", _triv),
    "s4_ax": ("s4_ax(i): reflexivity and transitivity", _s4),
    "s5_ax": ("s5_ax(i): reflexivity, transitivity, symmetry", _s5),
}


def named_formula(name: str, params=()) -> Formula:
    """Instantiate a registry formula.  Template variables are p = p0, q = p1."""
    entry = NAMED_FORMULAS.get(name)
    if entry is None:
        raise UnknownName(f"unknown formula name {name!r}")
    return entry[1](list(params))


def registry_names() -> tuple[str, ...]:
    return tuple(NAMED_FORMULAS)

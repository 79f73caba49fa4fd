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
depth) is recorded when a node is built.  A new node is recorded with one
atomic ``setdefault``, and the lock is taken only when an entry was there
first.  A node that nothing else holds is freed, and its death callback
removes its own table entry under the lock.  Nodes are immutable; copying
or unpickling one returns the interned node.

A formula is a DAG of distinct subformulas.  ``nodes(f)`` lists each of
them once, children before parents and ``f`` last.  Every walk over a
formula -- ``variables``, ``substitute``, ``swap_modalities``,
``print_formula`` and evaluation in the semantics module -- is one loop
over that list that works each node out from its children's results, so
no walk recurses.  The parser reads one token at a time by precedence
climbing (Pratt, "Top down operator precedence", 1973): one table gives
each infix operator its precedence and node class, and another gives each
prefix token its builder, which the registry's modality parameters also
use.  It jumps past a repeat of a group it has parsed and looks for
unrecognised input only when a parse fails, so its time and memory follow
the text it reads.  Nesting past the recursion limit is a FormulaSyntaxError,
unless it sits only inside repeats of parsed groups.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from functools import partial
from inspect import signature
from typing import Mapping, NoReturn

from .errors import ArityMismatch, FormulaSyntaxError, UnknownName, value_text

# (class, *fields) -> weak reference to the one live node with those fields;
# children are fields, and a child's hash and == are its identity, so a key
# is hashed and compared without Python code and ``setdefault`` is atomic
_table: dict[tuple, _Ref] = {}
_lock = threading.RLock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """Death callback: drop the node's entry, unless a newer node has it;
    under the lock, so that ``_make`` cannot replace it in between."""
    with _lock:
        if _table.get(ref.key) is ref:
            del _table[ref.key]


def _make(key: tuple, depth: int) -> Formula:
    """The node for ``key``; constructors call it when their lookup misses.
    One ``setdefault`` records a new node without the lock; only if an
    entry was there first does it lock, to return that entry's live node or
    put its own in a dead one's place."""
    cls = key[0]
    node = _new(cls)
    _set_depth(node, depth)
    if len(key) > 1:
        cls._set_first(node, key[1])
        if len(key) > 2:
            cls._set_second(node, key[2])
    ref = _Ref(node, _forget)
    ref.key = key
    if _table.setdefault(key, ref) is not ref:
        with _lock:
            # ``setdefault`` again, not ``get``: entries go only under the
            # lock, so no unlocked ``setdefault`` gets in before the store
            # below, and a dead entry found here stays until it is replaced
            other = _table.setdefault(key, ref)
            live = other()
            if live is not None:
                return live
            _table[key] = ref
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


# _make sets a node's fields through its slots' descriptors, one call each
_new, _set_depth = object.__new__, Formula.depth.__set__
Var._set_first = Var.index.__set__
_Unary._set_first = _Unary.child.__set__
_Modal._set_first, _Modal._set_second = _Modal.mod.__set__, _Modal.child.__set__
_Binary._set_first, _Binary._set_second = _Binary.left.__set__, _Binary.right.__set__

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


def _rebuild(f: Formula, mapping: Mapping[Formula, Formula], swap: bool) -> Formula:
    """``f`` with each node in the map replaced, and with the two modalities
    exchanged when ``swap``; each distinct node is rebuilt once."""
    new: dict[Formula, Formula] = {}
    for g in nodes(f):
        t = type(g)
        arity = _ARITY[t]
        if g in mapping:
            r = mapping[g]
        elif t is Dia or t is Box:
            r = t(3 - g.mod if swap else g.mod, new[g.child])
        elif arity == 2:
            r = t(new[g.left], new[g.right])
        elif arity == 1:
            r = t(new[g.child])
        else:
            r = g
        new[g] = r
    return r


def substitute(f: Formula, mapping: Mapping[int, Formula]) -> Formula:
    """Simultaneous substitution; variables absent from the map are kept."""
    return _rebuild(f, {Var(v): h for v, h in mapping.items()}, False)


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

# the tokens; any other character but whitespace is unrecognised input
_TOKENS = r"<->|->|<[12v*]>|\[[12v*]\]|p[0-9]+|true|false|[&|~()]"
# the leading whitespace and tokens, possessively; only a failed parse runs it
_VALID = re.compile(rf"(?:\s|{_TOKENS})*+").match
# the next token, "" at the end of the text, or a character no table knows
_SCAN = re.compile(rf"\s*+({_TOKENS}|\Z|.)").match
_HEAD = 16  # a group's head: its text up to its first ) or _HEAD characters
# prefix token text -> the builder it applies
_PREFIX_OPS = {"~": Not, "<v>": dia_v, "<*>": dia_star, "[v]": box_v, "[*]": box_star,
               **{f"<{i}>": partial(Dia, i) for i in (1, 2)},
               **{f"[{i}]": partial(Box, i) for i in (1, 2)}}
# infix token text -> (precedence, least precedence of an infix operator in
# its right operand, node class); no operator binds tighter than &, so the
# right operand of & is a unary formula
_INFIX = {"<->": (1, 1, Iff), "->": (2, 2, Imp), "|": (3, 4, Or), "&": (4, None, And)}

# the nodes of p0 to p15 by token, which the parser reads without int() or construction
_FIRST_VARS = {f"p{i}": Var(i) for i in range(16)}

_ATOM_EXPECTED = frozenset({"false", "true", "var", "~", "<i>", "[i]", "("})
_INFIX_EXPECTED = frozenset({"&", "|", "->", "<->", ")", "end"})


class _Parser:
    """Precedence climbing, one token at a time: ``tok`` is the current
    token, "" at the end, and ``pos`` the character just past it.  A group
    is a whole formula, so equal group text gives the same node anywhere."""

    __slots__ = ("text", "tok", "pos", "groups")

    def __init__(self, text: str):
        self.text = text
        # head -> {length: (start, node)} of the last group closed: offsets, not text
        self.groups: dict[str, dict[int, tuple[int, Formula]]] = {}
        m = _SCAN(text)
        self.tok, self.pos = m[1], m.end()

    def fail(self, expected: frozenset[str], problem: str = "unexpected token") -> NoReturn:
        end = _VALID(self.text).end()
        if end < len(self.text):
            self.tok, self.pos = self.text[end], end + 1
            expected, problem = _ATOM_EXPECTED | _INFIX_EXPECTED, "unrecognised input"
        offset = len(self.text[:self.pos - len(self.tok)].encode("utf-8"))
        raise FormulaSyntaxError(problem, offset, expected, self.tok or "end of input") from None

    def formula(self, floor: int = 1) -> Formula:
        """The longest formula from the current token whose infix operators
        outside parentheses all have precedence ``floor`` or more."""
        left = self.unary()
        op = _INFIX.get(self.tok)
        while op and op[0] >= floor:
            _, right, node = op
            m = _SCAN(self.text, self.pos)
            self.tok, self.pos = m[1], m.end()
            left = node(left, self.formula(right) if right else self.unary())
            op = _INFIX.get(self.tok)
        return left

    def unary(self) -> Formula:
        # prefix operators are read in a loop, so a long run of them does
        # not nest the parser; a variable is read here, other atoms by atom
        builders = []
        while (build := _PREFIX_OPS.get(self.tok)) is not None:
            builders.append(build)
            m = _SCAN(self.text, self.pos)
            self.tok, self.pos = m[1], m.end()
        tok = self.tok
        f = _FIRST_VARS.get(tok)
        if f is None and tok[:1] == "p" and tok[1:]:
            try:
                f = Var(int(tok[1:]))
            except ValueError:  # more digits than the interpreter converts
                self.fail(_ATOM_EXPECTED, "variable index of more than "
                          f"{sys.get_int_max_str_digits()} digits")
        if f is None:
            f = self.atom()
        else:
            m = _SCAN(self.text, self.pos)
            self.tok, self.pos = m[1], m.end()
        while builders:
            f = builders.pop()(f)
        return f

    def atom(self) -> Formula:
        tok, text = self.tok, self.text
        if tok == "(":
            s = self.pos - 1
            c = text.find(")", s, s + _HEAD)
            head = text[s:s + _HEAD if c < 0 else c + 1]
            groups = self.groups.get(head)
            if groups is not None:
                for length, (start, f) in groups.items():
                    if text.startswith(text[start:start + length], s):
                        m = _SCAN(text, s + length)
                        self.tok, self.pos = m[1], m.end()
                        return f
            m = _SCAN(text, self.pos)
            self.tok, self.pos = m[1], m.end()
            f = self.formula()
            if self.tok != ")":
                self.fail(frozenset({")"}) | _INFIX_EXPECTED - {"end", ")"})
            if groups is None:
                self.groups[head] = {self.pos - s: (s, f)}
            else:
                groups[self.pos - s] = (s, f)
        elif tok == "true" or tok == "false":
            f = Top() if tok == "true" else Bot()
        else:
            self.fail(_ATOM_EXPECTED)
        m = _SCAN(text, self.pos)
        self.tok, self.pos = m[1], m.end()
        return f


def parse(text: str) -> Formula:
    """Parse formula text.  Precedence ~/modal > & > | > -> > <->;
    implication and equivalence associate to the right.  One match reads
    each token; only a parse that fails runs one possessive match over the
    text, and reports its first unrecognised character ahead of any syntax
    error.  A ( that repeats the text of a group closed earlier in the
    call, looked up by the group's head (its text up to its first ) or 16
    characters) and length, gives that group's node unread.
    A level of parentheses takes three interpreter frames and an -> or <->
    of a chain one, so under the default recursion limit of 1000 about 330
    levels of parentheses and about 990 chained arrows parse.  Nesting past
    the limit is a FormulaSyntaxError at the token where the parser ran
    out; a repeat of a group already parsed is not entered again, so text
    that passes the limit only inside such repeats may parse."""
    parser = _Parser(text)
    try:
        f = parser.formula()
    except RecursionError:
        parser.fail(_ATOM_EXPECTED, "nesting too deep")
    if parser.tok:
        parser.fail(_INFIX_EXPECTED - {")"})
    return f


# --- named formulas ----------------------------------------------------

P = Var(0)
Q = Var(1)


def _modality(tok, allowed=("1", "2", "v", "*")):
    """The diamond and box builders of a modality parameter: one of
    ``allowed``, where 1 and 2 may also be ints."""
    text = tok if type(tok) is str else str(tok) if type(tok) is int and tok in (1, 2) else None
    if text not in allowed:
        raise ArityMismatch(f"modality must be one of {', '.join(allowed)}; "
                            f"got {value_text(tok)}")
    return _PREFIX_OPS[f"<{text}>"], _PREFIX_OPS[f"[{text}]"]


def _count(value, what: str) -> int:
    """A nonnegative registry count: an int (not a bool) or a string of
    decimal digits that ``int()`` converts."""
    if type(value) is str and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # more digits than the interpreter converts
            digits = sys.get_int_max_str_digits()
            raise ArityMismatch(f"{what} has more than {digits} digits") from None
    if type(value) is int and value >= 0:
        return value
    raise ArityMismatch(f"{what} must be a nonnegative integer; got {value_text(value)}")


def _bh(n, tok):
    n = _count(n, "bh height")
    dia, box = _modality(tok)
    f: Formula = Bot()
    for i in range(1, n + 1):
        f = Imp(Var(i), box(Or(dia(Var(i)), f)))
    return f


def _rp(m, tok):
    m = _count(m, "rp index")
    dia = _modality(tok)[0]

    def iterated(times: int, f: Formula) -> Formula:
        for _ in range(times):
            f = dia(f)
        return f

    core: Formula = Var(m + 1)
    for i in range(m, 0, -1):
        core = And(Var(i), dia(core))
    antecedent = And(Var(0), dia(core))
    parts = [iterated(i, And(Var(i), Var(j)))
             for i in range(m + 2) for j in range(i + 1, m + 2)]
    parts += [iterated(i, And(Var(i), dia(Var(j + 1))))
              for i in range(m + 1) for j in range(i + 1, m + 1)]
    return Imp(antecedent, disj(parts))


def _presym(i=None):
    if i is None:
        return And(_presym(1), _presym(2))
    dia, box = _modality(i, ("1", "2"))
    return Imp(Q, dia_star(And(Q, box_star(Imp(P, box(Imp(Q, dia(P))))))))


def _mck(tok):
    dia, box = _modality(tok)
    return Imp(box(dia(P)), dia(box(P)))


def _dot3(i):
    dia = _modality(i, ("1", "2"))[0]
    return Imp(And(dia(P), dia(Q)), Or(dia(And(P, dia(Q))), dia(And(Q, dia(P)))))


def _triv(i):
    dia = _modality(i, ("1", "2"))[0]
    return Iff(P, dia(P))


def _s4(i):
    dia = _modality(i, ("1", "2"))[0]
    return And(Imp(P, dia(P)), Imp(dia(dia(P)), dia(P)))


def _s5(i):
    dia, box = _modality(i, ("1", "2"))
    return And(_s4(i), Imp(P, box(dia(P))))


# name -> (description, builder); a builder takes the formula's parameters
NAMED_FORMULAS: dict[str, tuple[str, object]] = {
    "bh": ("bh(n, tok): height axiom at a modality token", _bh),
    "rp": ("rp(m, tok): chain-collapse axiom at a modality token", _rp),
    "com": ("com: the two diamonds commute",
            lambda: Iff(Dia(1, Dia(2, P)), Dia(2, Dia(1, P)))),
    "chr": ("chr: confluence (Church-Rosser) axiom",
            lambda: Imp(Dia(1, Box(2, P)), Box(2, Dia(1, P)))),
    "presym": ("presym([i]): presymmetry axiom(s)", _presym),
    "conv": ("conv: converse axioms for tense frames",
             lambda: And(Imp(Dia(1, Box(2, P)), P), Imp(Dia(2, Box(1, P)), P))),
    "dd": ("dd: downward directedness of the second diamond",
           lambda: Imp(And(Dia(2, P), Dia(2, Q)), Dia(2, And(Dia(1, P), Dia(1, Q))))),
    "mck": ("mck(tok): McKinsey axiom at a modality token", _mck),
    "dot3": ("dot3(i): linearity axiom at a modality", _dot3),
    "sym2": ("sym2: symmetry axiom for the second modality",
             lambda: Imp(P, Box(2, Dia(2, P)))),
    "match2_ax": ("match2_ax: first-diamond steps stay in second-diamond clusters",
                  lambda: Imp(And(P, Dia(1, Q)), Dia(2, And(Q, Dia(2, P))))),
    "match12_ax": ("match12_ax: second-diamond steps split into first-diamond or cluster",
                   lambda: Imp(And(P, Dia(2, Q)), Or(Dia(1, Q), Dia(2, And(Q, Dia(2, P)))))),
    "cas": ("cas: chained-box collapse axiom",
            lambda: Imp(box_star(Imp(Box(1, Imp(Box(1, P), box_star(P))), box_star(P))),
                        box_star(P))),
    "u_incl": ("u_incl: first diamond included in the second",
               lambda: Imp(Dia(1, P), Dia(2, P))),
    "triv_ax": ("triv_ax(i): diamond is the identity", _triv),
    "s4_ax": ("s4_ax(i): reflexivity and transitivity", _s4),
    "s5_ax": ("s5_ax(i): reflexivity, transitivity, symmetry", _s5),
}


def _counts(build) -> range:
    """The numbers of parameters a builder takes, read from its signature."""
    params = signature(build).parameters.values()
    return range(sum(p.default is p.empty for p in params), len(params) + 1)


_COUNTS = {name: _counts(build) for name, (_, build) in NAMED_FORMULAS.items()}


def named_formula(name: str, params=()) -> Formula:
    """Instantiate a registry formula.  Template variables are p = p0, q = p1."""
    entry = NAMED_FORMULAS.get(name)
    if entry is None:
        raise UnknownName(f"unknown formula name {name!r}")
    params = tuple(params)
    counts = _COUNTS[name]
    if len(params) not in counts:
        raise ArityMismatch(f"{name} takes {' or '.join(map(str, counts))} "
                            f"parameter(s), got {len(params)}")
    return entry[1](*params)

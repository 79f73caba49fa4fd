"""Independent test oracles for formula walks, formula parsing, formula
evaluation, refutation search, subalgebra atoms, free-algebra counts,
canonical keys, poset enumeration and the rp frame condition.

The formula walks here recurse over the formula as a tree, visiting a
shared subformula once per occurrence; the library loops over its node
order instead.  ``tree_key`` compares formulas by structure without the
library's ``==``, which is identity on interned nodes.
``reference_parse`` is a recursive-descent parser over a match-loop
tokenizer that parses every occurrence of a group anew; the library's
parser parses each distinct group once.

Truth is decided world by world with the Kripke clauses, and assignments
are enumerated one at a time in bitstring order with the lowest variable
most significant.  Nothing here calls the library's evaluator, its
preimage helpers or its candidate enumeration.  Free-algebra counts past
the cap of ``naive_free_algebra_count`` are checked against the library's
single-model refinement run on the explicit disjoint union of the valued
coordinate models, which shares no code with the vectorised count.

``permutation_key`` splits the worlds by their loop bits and degrees alone
and tries every permutation inside each class, where the library searches
a tree of refined colourings; its keys are other values than the
library's, but two frames share one key iff they share the other.
``recursive_posets`` grows every labelled prefix point by point and keeps
the first of each isomorphism type; the library grows only the first-seen
(k-1)-posets, and leaves out children that a poset's automorphisms show to
repeat.  ``keyed_preorders`` blows each of those posets up by every
composition and keeps the first of each permutation key, where the library
decides by the poset's automorphisms which compositions to keep.
``automorphisms`` tries every permutation of the worlds, where the library
reads a generating set off its key search: the swaps of each group of
twins, and an automorphism for each leaf whose rows an earlier leaf gave.
``rp_holds`` decides rp(m) by growing every path of m + 2 worlds one world
tuple at a time and testing each for a repeat or a shortcut; the library
walks only paths of distinct worlds, on a stack of bitmasks.
``reference_beta_formula`` builds a definability certificate from scratch
on every call and evaluates beta whole; the library shares everything but
alpha(r) among the roots of one model and subframe.  It uses the
library's block system and evaluator.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import permutations, product as iproduct

from kripkebench.algebra import (DefinabilityCertificate, _refinements,
                                 block_system)
from kripkebench.errors import (EmptyRestriction, FormatError, FormulaSyntaxError,
                                NotDefinable, NotPretransitive)
from kripkebench.formulas import (And, Bot, Box, Dia, Iff, Imp, Not, Or,
                                  ReachBox, ReachDia, Top, Var, box_star,
                                  box_v, conj, dia_star, dia_v, disj)
from kripkebench.frames import (GeneralFrame, _as_mask, bitstring, compose_rows,
                                diagonal, kripke_of, pull, pull_rows,
                                restrict_frame, restrict_general, rt_closure,
                                union_rows, worlds_of)
from kripkebench.semantics import Model, eval_formula


def children(f) -> tuple:
    if isinstance(f, (And, Or, Imp, Iff)):
        return (f.left, f.right)
    if isinstance(f, (Not, Dia, Box, ReachDia, ReachBox)):
        return (f.child,)
    return ()


def node_ids(f) -> set[int]:
    """Identities of every node object reachable from ``f``."""
    return {id(f)}.union(*(node_ids(c) for c in children(f)))


def tree_key(f, into: set | None = None, memo: dict | None = None) -> tuple:
    """Nested tuple of the node kind, its index or modality, and the keys
    of its children: equal exactly for structurally equal formulas.
    ``into`` collects the key of every subformula."""
    memo = {} if memo is None else memo  # node object id -> key, one call
    key = memo.get(id(f))
    if key is None:
        own = (f.index,) if isinstance(f, Var) else (f.mod,) if isinstance(f, (Dia, Box)) else ()
        key = memo[id(f)] = (type(f).__name__, *own,
                             *(tree_key(c, into, memo) for c in children(f)))
        if into is not None:
            into.add(key)
    return key


def tree_variables(f) -> frozenset[int]:
    if isinstance(f, Var):
        return frozenset({f.index})
    return frozenset().union(*(tree_variables(c) for c in children(f)))


def tree_depth(f) -> int:
    below = max((tree_depth(c) for c in children(f)), default=0)
    return below + isinstance(f, (Dia, Box, ReachDia, ReachBox))


def tree_map(f, var, mod):
    """``f`` rebuilt as a tree, with each variable v replaced by ``var(v)``
    and each modality i of Dia and Box by ``mod(i)``."""
    if isinstance(f, Var):
        return var(f)
    if isinstance(f, (Dia, Box)):
        return type(f)(mod(f.mod), tree_map(f.child, var, mod))
    return type(f)(*(tree_map(c, var, mod) for c in children(f)))


def tree_substitute(f, mapping):
    return tree_map(f, lambda v: mapping.get(v.index, v), lambda i: i)


def tree_swap(f):
    return tree_map(f, lambda v: v, lambda i: 3 - i)


_TEXT = {Not: "~", ReachDia: "<+>", ReachBox: "[+]"}
_OPS = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def tree_print(f) -> str:
    if isinstance(f, Var):
        return f"p{f.index}"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Dia):
        return f"<{f.mod}>" + tree_print(f.child)
    if isinstance(f, Box):
        return f"[{f.mod}]" + tree_print(f.child)
    if type(f) in _TEXT:
        return _TEXT[type(f)] + tree_print(f.child)
    return f"({tree_print(f.left)} {_OPS[type(f)]} {tree_print(f.right)})"


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<not>~)
      | (?P<dia><(?P<diatok>1|2|v|\*)>)
      | (?P<box>\[(?P<boxtok>1|2|v|\*)\])
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<false>false)
      | (?P<true>true)
      | (?P<var>p[0-9]+)
    """,
    re.VERBOSE,
)

_ATOM_EXPECTED = frozenset({"false", "true", "var", "~", "<i>", "[i]", "("})
_INFIX_EXPECTED = frozenset({"&", "|", "->", "<->", ")", "end"})
_MODAL = {("dia", "v"): dia_v, ("dia", "*"): dia_star,
          ("box", "v"): box_v, ("box", "*"): box_star}


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                "unrecognised input", _byte_offset(text, pos),
                _ATOM_EXPECTED | _INFIX_EXPECTED, text[pos])
        kind = m.lastgroup if m.lastgroup not in ("diatok", "boxtok") else None
        if kind is None:  # lastgroup was the inner token group
            kind = "dia" if m.group("dia") else "box"
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: frozenset[str]):
        kind, text, pos = self.peek()
        raise FormulaSyntaxError(
            "unexpected token", _byte_offset(self.text, pos), expected,
            text if text else "end of input")

    def parse(self):
        f = self.iff()
        if self.peek()[0] != "end":
            self.fail(_INFIX_EXPECTED - {")"})
        return f

    def iff(self):
        left = self.imp()
        if self.peek()[0] == "iff":
            self.advance()
            return Iff(left, self.iff())
        return left

    def imp(self):
        left = self.disj()
        if self.peek()[0] == "imp":
            self.advance()
            return Imp(left, self.imp())
        return left

    def disj(self):
        f = self.conj()
        while self.peek()[0] == "or":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self):
        prefixes = []
        while self.peek()[0] in ("not", "dia", "box"):
            prefixes.append(self.advance()[:2])
        f = self.atom()
        for kind, text in reversed(prefixes):
            tok = text[1:-1]
            if kind == "not":
                f = Not(f)
            elif tok in ("1", "2"):
                f = (Dia if kind == "dia" else Box)(int(tok), f)
            else:
                f = _MODAL[kind, tok](f)
        return f

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "false":
            self.advance()
            return Bot()
        if kind == "true":
            self.advance()
            return Top()
        if kind == "var":
            limit = sys.get_int_max_str_digits()
            if limit and len(text) - 1 > limit:
                raise FormulaSyntaxError(
                    f"variable index of more than {limit} digits",
                    _byte_offset(self.text, pos), _ATOM_EXPECTED, text)
            self.advance()
            return Var(int(text[1:]))
        if kind == "lpar":
            self.advance()
            f = self.iff()
            if self.peek()[0] != "rpar":
                self.fail(frozenset({")"}) | _INFIX_EXPECTED - {"end", ")"})
            self.advance()
            return f
        self.fail(_ATOM_EXPECTED)


def reference_parse(text: str):
    """Parse formula text token by token, every group at each occurrence;
    the same formulas and the same FormulaSyntaxErrors as ``parse`` for
    text nested below the recursion limit."""
    return _ReferenceParser(text).parse()


def _successors(rows, w):
    return [v for v in range(len(rows)) if rows[w] >> v & 1]


def _reachable(frame, w):
    """Worlds reachable from w in zero or more r1/r2 steps."""
    seen, todo = {w}, [w]
    while todo:
        u = todo.pop()
        for v in _successors(frame.r1, u) + _successors(frame.r2, u):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return sorted(seen)


def holds(frame, valuation, f, w) -> bool:
    """Truth of ``f`` at world ``w``; absent variables are false."""
    if isinstance(f, Var):
        return bool(valuation.get(f.index, 0) >> w & 1)
    if isinstance(f, Bot):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not holds(frame, valuation, f.child, w)
    if isinstance(f, And):
        return holds(frame, valuation, f.left, w) and holds(frame, valuation, f.right, w)
    if isinstance(f, Or):
        return holds(frame, valuation, f.left, w) or holds(frame, valuation, f.right, w)
    if isinstance(f, Imp):
        return not holds(frame, valuation, f.left, w) or holds(frame, valuation, f.right, w)
    if isinstance(f, Iff):
        return holds(frame, valuation, f.left, w) == holds(frame, valuation, f.right, w)
    if isinstance(f, (Dia, Box)):
        succ = _successors(frame.r1 if f.mod == 1 else frame.r2, w)
    elif isinstance(f, (ReachDia, ReachBox)):
        succ = _reachable(frame, w)
    else:
        raise TypeError(f"unknown formula node {f!r}")
    truth = (holds(frame, valuation, f.child, v) for v in succ)
    return any(truth) if isinstance(f, (Dia, ReachDia)) else all(truth)


def extension(frame, valuation, f) -> int:
    return sum(1 << w for w in range(frame.n) if holds(frame, valuation, f, w))


def candidates(g) -> list[int]:
    """Admissible sets in bitstring order (world 0 is the leftmost digit)."""
    frame = g.frame if isinstance(g, GeneralFrame) else g
    sets = g.algebra if isinstance(g, GeneralFrame) else range(1 << frame.n)
    return sorted(sets, key=lambda m: [m >> i & 1 for i in range(frame.n)])


def least_witness(g, f):
    """(valuation pairs, world) of the first falsified world under the first
    falsifying assignment, or None when ``f`` is valid."""
    frame = g.frame if isinstance(g, GeneralFrame) else g
    occurring = sorted(tree_variables(f))
    for combo in iproduct(candidates(g), repeat=len(occurring)):
        valuation = dict(zip(occurring, combo))
        for w in range(frame.n):
            if not holds(frame, valuation, f, w):
                return tuple(zip(occurring, combo)), w
    return None


def atoms_of(alg) -> tuple[int, ...]:
    """Minimal nonempty elements of a set algebra, sorted by least world."""
    nonempty = [m for m in alg.elements if m]
    atoms = [m for m in nonempty
             if not any(o and o != m and o & ~m == 0 for o in nonempty)]
    return tuple(sorted(atoms, key=lambda m: (m & -m).bit_length()))


def free_count_by_refinement(frames, k) -> int:
    """2 to the number of bisimulation classes of the disjoint union of
    every (frame, k-valuation) coordinate model, built world by world."""
    adj1, adj2, profiles = [], [], []
    for f in frames:
        succ1 = [worlds_of(row) for row in f.r1]
        succ2 = [worlds_of(row) for row in f.r2]
        for theta in iproduct(range(1 << f.n), repeat=k):
            base = len(profiles)
            for w in range(f.n):
                adj1.append([base + x for x in succ1[w]])
                adj2.append([base + x for x in succ2[w]])
                profiles.append(tuple(mask >> w & 1 for mask in theta))
    if not profiles:
        return 1
    for types in _refinements(adj1, adj2, profiles):
        pass
    return 1 << max(types) + 1


def rp_holds(f, m: int) -> bool:
    """rp(m) by enumerating every path x0 .. x(m+1) of r1 | r2 steps, one
    world tuple at a time: it holds iff every such path repeats a world or
    has a step x(i) -> x(j+1) for some i < j <= m."""
    rows = union_rows(f.r1, f.r2)

    def chain_ok(chain: tuple[int, ...]) -> bool:
        if len(set(chain)) < len(chain):
            return True
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                if rows[chain[i]] >> chain[j + 1] & 1:
                    return True
        return False

    def extend(chain: tuple[int, ...]) -> bool:
        if len(chain) == m + 2:
            return chain_ok(chain)
        return all(extend(chain + (y,)) for y in worlds_of(rows[chain[-1]]))

    return all(extend((x,)) for x in range(f.n))


def automorphisms(f) -> set[tuple[int, ...]]:
    """Every permutation of the worlds that maps both relations onto
    themselves."""
    return {p for p in permutations(range(f.n))
            if pull_rows(f.r1, p) == f.r1 and pull_rows(f.r2, p) == f.r2}


def degree_classes(relations, n) -> list[list[int]]:
    """The worlds grouped by their loop bit and their out- and in-degree in
    each relation, the groups in the order of those values."""
    classes: dict = {}
    for w in range(n):
        invariant = tuple((rows[w] >> w & 1, bin(rows[w]).count("1"),
                           sum(row >> w & 1 for row in rows))
                          for rows in relations)
        classes.setdefault(invariant, []).append(w)
    return [classes[c] for c in sorted(classes)]


def permutation_key(relations, n) -> tuple:
    """Minimum relabelling of the relation tuple over every permutation of
    every degree class: an isomorphism keeps loops and degrees, so it maps
    each class onto the same class of the other frame."""
    best = None
    for parts in iproduct(*(permutations(c) for c in degree_classes(relations, n))):
        order = [w for part in parts for w in part]   # new world -> old world
        candidate = tuple(pull_rows(rows, order) for rows in relations)
        if best is None or candidate < best:
            best = candidate
    return (n, best)


@lru_cache(maxsize=None)
def recursive_posets(k: int) -> tuple[tuple[int, ...], ...]:
    """Posets on k points, one per isomorphism type: every labelled poset
    with the identity as a linear extension, grown by a maximal point at a
    time, keeping the first of each permutation key."""
    def down_closed(rows, subset) -> bool:
        for w in worlds_of(subset):
            below = 0
            for v in range(len(rows)):
                if rows[v] >> w & 1:
                    below |= 1 << v
            if below & ~subset:
                return False
        return True

    def extend(rows):
        i = len(rows)
        if i == k:
            yield rows
            return
        for subset in range(1 << i):
            if not down_closed(rows, subset):
                continue
            new_rows = tuple(row | (1 << i if subset >> j & 1 else 0)
                             for j, row in enumerate(rows))
            yield from extend(new_rows + (1 << i,))

    seen, out = set(), []
    for rows in extend(()):
        key = permutation_key((rows,), k)
        if key not in seen:
            seen.add(key)
            out.append(rows)
    return tuple(out)


def keyed_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of preorders on n worlds, one per isomorphism type: each
    poset of ``recursive_posets``, in order, with point i blown up into a
    cluster of sizes[i] worlds for each composition in ascending order,
    keeping the first of each permutation key."""
    seen, out = set(), []
    for k in range(1, n + 1):
        compositions = sorted(c for c in iproduct(range(1, n + 1), repeat=k)
                              if sum(c) == n)
        for poset in recursive_posets(k):
            for sizes in compositions:
                point = [i for i, size in enumerate(sizes) for _ in range(size)]
                rows = tuple(sum(1 << y for y in range(n)
                                 if poset[point[x]] >> point[y] & 1)
                             for x in range(n))
                key = permutation_key((rows,), n)
                if key not in seen:
                    seen.add(key)
                    out.append(rows)
    return tuple(out)


def generated_subframe(g, Y):
    """Restriction to the (r1|r2)-reachability image of Y (a bitstring, an
    int mask or an iterable of worlds).  Returns the subframe (same kind as
    the input) and the reachable set as a mask over the original worlds."""
    frame = kripke_of(g)
    mask = _as_mask(Y, frame.n)
    if mask == 0:
        raise EmptyRestriction("cannot generate from the empty set")
    reach_rows = rt_closure(frame.union(), frame.n)
    reach = 0
    for b in worlds_of(mask):
        reach |= reach_rows[b]
    if isinstance(g, GeneralFrame):
        # a reachability-closed restriction is always a general frame
        return restrict_general(g, reach), reach
    return restrict_frame(frame, reach)[0], reach


def reference_beta_formula(m, r):
    """Point-definability certificate for world ``r``, every part rebuilt
    and beta evaluated whole on each call."""
    frame = m.kripke
    if not 0 <= r < frame.n:
        raise FormatError(f"world {r} out of range")
    union = frame.union()
    two = union_rows(union_rows(diagonal(frame.n), union),
                     compose_rows(union, union))
    if two != rt_closure(union, frame.n):
        raise NotPretransitive(
            "frame is not 2-transitive for the union relation")
    sub, reach = generated_subframe(frame, 1 << r)
    keep = worlds_of(reach)
    local_val = {v: pull(mask, keep) for v, mask in m.valuation.items()}
    system = block_system(Model(sub, local_val))
    for b in system.stabilized:
        if b & (b - 1):
            raise NotDefinable(keep[(b & -b).bit_length() - 1],
                               "block system does not stabilise at singletons")

    def literals(w):
        return [Var(v) if local_val[v] >> w & 1 else Not(Var(v))
                for v in sorted(m.valuation)]

    char = {sub.full: Top()}
    for i in range(1, len(system.layers)):
        prev = system.layers[i - 1]
        prev_of = {w: idx for idx, b in enumerate(prev) for w in worlds_of(b)}
        nxt = {}
        for b in system.layers[i]:
            w = (b & -b).bit_length() - 1
            parts = literals(w)
            if i > 1:
                for mod, rows in ((1, sub.r1), (2, sub.r2)):
                    met = sorted({prev_of[x] for x in worlds_of(rows[w])})
                    parts.extend(Dia(mod, char[prev[j]]) for j in met)
                    parts.append(Box(mod, disj([char[prev[j]] for j in met])))
            nxt[b] = conj(parts)
        char.update(nxt)

    alpha_local = {}
    for b in system.layers[system.stabilization]:
        w = (b & -b).bit_length() - 1
        alpha_local[w] = And(conj(literals(w)), char[b])

    edge_parts, non_edge_parts = [], []
    for mod, rows in ((1, sub.r1), (2, sub.r2)):
        for b1 in range(sub.n):
            for b2 in range(sub.n):
                if rows[b1] >> b2 & 1:
                    edge_parts.append(
                        Imp(alpha_local[b1], Dia(mod, alpha_local[b2])))
                else:
                    non_edge_parts.append(
                        Imp(alpha_local[b1], Not(Dia(mod, alpha_local[b2]))))
    gamma = conj([
        box_star(conj(edge_parts)),
        box_star(conj(non_edge_parts)),
        box_star(disj([alpha_local[w] for w in range(sub.n)])),
    ])
    beta = And(alpha_local[keep.index(r)], gamma)
    extension = eval_formula(m, beta)
    if extension != 1 << r:
        stray = worlds_of(extension ^ (1 << r))
        raise NotDefinable(stray[0],
                           f"worlds {stray} are indistinguishable from {r}")
    transcript = (
        f"generated subframe has {sub.n} worlds: {keep}",
        f"block system stabilises at layer {system.stabilization}",
        f"beta({r}) has modal depth {beta.depth}",
        f"extension {bitstring(extension, frame.n)} equals {{{r}}}",
    )
    return DefinabilityCertificate(r, {keep[w]: f for w, f in alpha_local.items()},
                                   gamma, beta, beta.depth, transcript)

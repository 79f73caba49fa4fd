"""Frame enumeration with isomorphism rejection, and seeded samplers.

Preorders are generated as (poset of clusters, cluster sizes).  The posets
on k points are grown from the (k-1)-table, keeping the first child of each
isomorphism type, which gives the tuple that growing every labelled prefix
gives (``_posets`` says why); sizes run over all compositions.  After
McKay's isomorph-free generation, no candidate is built that an
automorphism of its poset maps to an earlier one, so no preorder is keyed,
and of the children only those of different posets are.  One search by
individualisation-refinement after McKay and Piperno, over one colour
refinement (``_equitable``), gives both the keys and
``automorphism_generators``: it treats each group of twins, worlds whose
swap is an automorphism, as one world, and its generators are the twin
swaps and the automorphisms between leaves with equal rows.  They let
free-algebra counts skip valuations and give each poset its group.
Bimodal frames are enumerated exhaustively for n <= 2; beyond that the
samplers provide seeded pseudorandom corpora.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from .frames import (Frame, UniFrame, mask_of, pull_rows, rt_closure,
                     transpose_rows, twins, worlds_of)


def _adjacency(relations: tuple[tuple[int, ...], ...],
               n: int) -> tuple[list[list[list[int]]], list[int]]:
    """The successor lists of each relation, then its predecessor lists,
    and a start colouring that ranks each world by its loop bit and its out-
    and in-degree in each relation, which relabelling leaves as it is."""
    transposes = [transpose_rows(rows, n) for rows in relations]
    adjacency = [[worlds_of(row) for row in rows]
                 for rows in (*relations, *transposes)]
    invariants = [tuple((rows[w] >> w & 1, rows[w].bit_count(), t[w].bit_count())
                        for rows, t in zip(relations, transposes))
                  for w in range(n)]
    ranks = {key: r for r, key in enumerate(sorted(set(invariants)))}
    return adjacency, [ranks[key] for key in invariants]


def _equitable(adjacency: list[list[list[int]]], colors: list[int]) -> list[int]:
    """Colour refinement of a world colouring until a step splits nothing.

    Each step keys a world by its colour and the sorted colours of its
    neighbours in each adjacency, and recolours it by the key's rank, so a
    colour below another stays below all that it splits into.  Every
    colouring of the search (``_search``) is refined by it."""
    count = len(set(colors))
    while True:
        keys = [(color,) + tuple(tuple(sorted(colors[x] for x in succ[w]))
                                 for succ in adjacency)
                for w, color in enumerate(colors)]
        ranks = {key: r for r, key in enumerate(sorted(set(keys)))}
        colors = [ranks[key] for key in keys]
        if len(ranks) == count:
            return colors
        count = len(ranks)


def _individualised(adjacency: list[list[list[int]]], colors: list[int],
                    w: int) -> list[int]:
    """The colouring with world w alone in a new colour, refined."""
    return _equitable(adjacency, [2 * c + (v == w) for v, c in enumerate(colors)])


def _cells(colors: list[int]) -> list[list[int]]:
    """The worlds of each colour of a refined colouring, by colour."""
    cells: list[list[int]] = [[] for _ in colors]
    for w, color in enumerate(colors):
        cells[color].append(w)
    return cells


def _orbit(worlds: list[int], generators: list[tuple[int, ...]]) -> set[int]:
    """The worlds that the generators carry the given worlds to."""
    orbit, frontier = set(worlds), list(worlds)
    while frontier:
        x = frontier.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return orbit


def _twin_groups(relations: tuple[tuple[int, ...], ...],
                 cell: list[int]) -> list[list[int]]:
    """The worlds of a colour cell grouped into mutual twins, worlds whose
    swap maps every relation onto itself."""
    groups: list[list[int]] = []
    for w in cell:
        for group in groups:
            if all(twins(rows, group[0], w) for rows in relations):
                group.append(w)
                break
        else:
            groups.append([w])
    return groups


def _key_branches(adjacency: list[list[list[int]]], colors: list[int],
                  fixed: list[int], groups: list[list[int]],
                  automorphisms: list[tuple[int, ...]]):
    """The refined colourings after individualising one world of each twin
    group, but not of a group that an automorphism fixing ``fixed`` (found
    so far) maps a tried world into: that subtree repeats a searched one."""
    tried: list[int] = []
    for group in groups:
        if tried:
            stabiliser = [g for g in automorphisms if all(g[w] == w for w in fixed)]
            if not _orbit(tried, stabiliser).isdisjoint(group):
                continue
        tried.append(group[0])
        yield _individualised(adjacency, colors, group[0]), fixed + [group[0]]


def _search(relations: tuple[tuple[int, ...], ...],
            n: int) -> tuple[tuple, list[tuple[int, ...]]]:
    """The frame's canonical key and generators of its automorphism group
    (world -> image), from one individualisation-refinement search after
    McKay and Piperno.

    Depth first, the tree individualises worlds of the first colour cell
    that is not one group of twins, one world per group.  At a leaf every
    cell is one, and twins may stand in any order.  The key is n and the
    least relation tuple pulled along the leaves, which relabels with the
    frame.  The generators are the swaps of the first world of each twin
    group of the root's cells with each of the others, and an
    automorphism for each leaf whose rows an earlier leaf gave; they also
    prune later branches.  Together they generate the group, by induction
    up the way to the first leaf.  An automorphism fixing every world
    individualised on the way keeps each leaf cell, a twin group, so twin
    swaps give it.  At each level, let g fix the levels above and move the
    way's world v to w.  If w's group was branched on, the first leaf below
    it with the first leaf's rows gives a generator that fixes those levels
    and sends v into w's group; if it was pruned, generators fixing those
    levels carry a branched world there.  Up to a twin swap, g is one of
    these times a map that fixes v as well."""
    adjacency, start = _adjacency(relations, n)
    root = _equitable(adjacency, start)
    generators = [tuple(t if x == group[0] else group[0] if x == t else x
                        for x in range(n))
                  for cell in _cells(root) if len(cell) > 1
                  for group in _twin_groups(relations, cell) for t in group[1:]]
    leaves: dict = {}   # leaf rows -> the world order that first gave them
    stack = [iter([(root, [])])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        colors, fixed = node
        groups = next((groups for groups in (_twin_groups(relations, cell)
                                             for cell in _cells(colors) if len(cell) > 1)
                       if len(groups) > 1), None)
        if groups is not None:
            stack.append(_key_branches(adjacency, colors, fixed, groups, generators))
            continue
        order = sorted(range(n), key=colors.__getitem__)   # new -> old world
        rows = tuple(pull_rows(r, order) for r in relations)
        other = leaves.setdefault(rows, order)
        if other is not order:
            generators.append(tuple(y for _, y in sorted(zip(other, order))))
    return (n, min(leaves)), generators


def canonical_key(relations: tuple[tuple[int, ...], ...], n: int) -> tuple:
    """A key that two frames share iff they are isomorphic (``_search``)."""
    return _search(relations, n)[0]


def automorphism_generators(relations: tuple[tuple[int, ...], ...],
                            n: int) -> list[tuple[int, ...]]:
    """Automorphisms (world -> image) that generate the frame's whole
    automorphism group: the key search's twin swaps and leaf automorphisms
    (``_search``)."""
    return _search(relations, n)[1]


def frame_key(f: Frame) -> tuple:
    return canonical_key((f.r1, f.r2), f.n)


def iso_distinct(frames, key=frame_key):
    seen = set()
    out = []
    for f in frames:
        k = key(f)
        if k not in seen:
            seen.add(k)
            out.append(f)
    return out


@lru_cache(maxsize=None)
def _poset_group(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of the poset but the identity (world -> image),
    ``automorphism_generators`` closed under composition.  The enumeration
    keeps the least candidate of each orbit of this group: a missing map
    would keep duplicate classes and a map that is no automorphism would
    lose classes, so a generator that is none raises."""
    k = len(rows)
    generators = automorphism_generators((rows,), k)
    for g in generators:
        if pull_rows(rows, g) != rows:
            raise RuntimeError(f"{g} is not an automorphism of {rows}")
    identity = tuple(range(k))
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    group.remove(identity)
    return tuple(group)


@lru_cache(maxsize=None)
def _posets(k: int) -> tuple[tuple[int, ...], ...]:
    """Reflexive-transitive-antisymmetric relations on k points, one per
    isomorphism type, each with the identity as a linear extension.

    The table is grown from the (k-1)-table: each (k-1)-poset, in order,
    gets a new maximal point k-1 over each of its down-closed subsets, in
    ascending order, and the first child of each isomorphism type is kept.
    This is the tuple that growing every labelled prefix gives, in the same
    order, because if a prefix Q is isomorphic to an earlier prefix Q* along
    phi, each child Q + S has the earlier isomorphic child Q* + phi(S): no
    first-seen k-poset grows from a prefix that was not itself first seen.
    ``_children`` leaves out the children that the keys would drop as
    repeating an earlier child of the same parent.  The cached calls for
    smaller tables nest at most k deep."""
    if k == 0:
        return ((),)
    return tuple(iso_distinct(_children(_posets(k - 1)),
                              key=lambda rows: canonical_key((rows,), k)))


def _children(table: tuple[tuple[int, ...], ...]):
    """Each poset of the table with a new maximal point above each of its
    down-closed subsets S, but not where an automorphism g of the poset
    gives a smaller mask g(S): the child over g(S) comes earlier and is
    isomorphic to it, g extended by the new point fixed."""
    for rows in table:
        top = len(rows)
        below = transpose_rows(rows, top)   # the points below each point
        group = _poset_group(rows)
        for subset in range(1 << top):
            points = worlds_of(subset)
            if (all(below[w] & ~subset == 0 for w in points)
                    and all(mask_of(g[w] for w in points) >= subset for g in group)):
                yield tuple(row | (subset >> j & 1) << top
                            for j, row in enumerate(rows)) + (1 << top,)


def _preorder_from(poset: tuple[int, ...], sizes: tuple[int, ...]) -> UniFrame:
    """Point i of the poset blown up into a cluster of sizes[i] worlds."""
    index = [i for i, size in enumerate(sizes) for _ in range(size)]
    return UniFrame(len(index), pull_rows(poset, index))


def _compositions(n: int, k: int):
    """Compositions of n into k positive parts, recursing once per part:
    the depth is bounded by k <= n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def all_preorders(n: int) -> tuple[UniFrame, ...]:
    """All preorders on n worlds, one per isomorphism class: each poset P
    of each table blown up by each composition s of n with s∘g >= s for
    every g in Aut(P).

    No key is needed.  The poset of clusters is an isomorphism invariant,
    so preorders over different posets are not isomorphic, and (P, s) and
    (P, s') are isomorphic exactly when s' = s∘g for some g in Aut(P).
    Compositions come in ascending order, so the least of each orbit is the
    first of its class, which keying every candidate would keep.  Over
    k = n points the only composition is all ones."""
    if n < 1:
        raise ValueError("need at least one world")
    out = []
    for k in range(1, n + 1):
        for poset in _posets(k):
            group = _poset_group(poset) if k < n else ()
            out += (_preorder_from(poset, sizes) for sizes in _compositions(n, k)
                    if all(tuple(sizes[i] for i in g) >= sizes for g in group))
    return tuple(out)


@lru_cache(maxsize=None)
def linear_preorders(n: int) -> tuple[UniFrame, ...]:
    """Linear preorders (chains of clusters) on n worlds, up to isomorphism:
    one per composition of n."""
    if n < 1:
        raise ValueError("need at least one world")
    out = []
    for k in range(1, n + 1):
        for sizes in _compositions(n, k):
            chain_poset = tuple(((1 << k) - 1 >> i) << i for i in range(k))
            out.append(_preorder_from(chain_poset, sizes))
    return tuple(out)


@lru_cache(maxsize=None)
def all_bimodal_frames(n: int) -> tuple[Frame, ...]:
    """All bimodal frames on n worlds up to isomorphism (n <= 2 only; the
    labelled space grows as 2^(2 n^2))."""
    if not 1 <= n <= 2:
        raise ValueError("exhaustive bimodal enumeration is provided for n <= 2")
    relations = [tuple(bits >> (i * n) & ((1 << n) - 1) for i in range(n))
                 for bits in range(1 << (n * n))]
    return tuple(iso_distinct(Frame(n, r1, r2)
                              for r1 in relations for r2 in relations))


# --- seeded samplers -------------------------------------------------------

def random_relation(rng: Random, n: int, density: float = 0.4) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(n) if rng.random() < density)
        for _ in range(n))


def random_frame(rng: Random, n: int) -> Frame:
    return Frame(n, random_relation(rng, n), random_relation(rng, n))


def random_preorder(rng: Random, n: int) -> UniFrame:
    """Reflexive-transitive closure of a sparse random digraph."""
    rows = random_relation(rng, n, density=0.3)
    return UniFrame(n, rt_closure(rows, n))


def random_valuation(rng: Random, n: int, k: int) -> dict[int, int]:
    return {v: rng.randrange(1 << n) for v in range(k)}

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
swaps and the automorphisms between leaves with equal rows.  They give
each poset its group, and ``_kept_coordinates`` drops the valuations they
map lower, for free-algebra counts and the validity search.

``iso_distinct`` keys many frames at once, as the free counts refine many
models: the frames of one world count are colour-refined together on
numpy arrays (``_keys``).  A frame whose refined cells are all groups of
twins is one leaf, and its rows in colour order are its key; only the
others go to the search.  The refinement treats isomorphic frames alike,
so they take the same route, and every key is a relabelled copy of its
frame, so equal keys mean isomorphic frames.  A leaf key does not depend
on the other frames refined with it.  Bimodal frames are enumerated
exhaustively for n <= 2; beyond that the samplers provide seeded
pseudorandom corpora.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, check_int
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
    """The child nodes after individualising one world of each twin group,
    but not of a group that an automorphism fixing ``fixed`` (found so far)
    maps a tried world into: that subtree repeats a searched one.  A node is
    its refined colouring, its individualised worlds and its cells' twin
    groups, which ``_search`` finds only when it reaches the node."""
    tried: list[int] = []
    for group in groups:
        if tried:
            stabiliser = [g for g in automorphisms if all(g[w] == w for w in fixed)]
            if not _orbit(tried, stabiliser).isdisjoint(group):
                continue
        tried.append(group[0])
        yield _individualised(adjacency, colors, group[0]), fixed + [group[0]], None


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
    root_groups = [_twin_groups(relations, cell) for cell in _cells(root) if len(cell) > 1]
    generators = [tuple(t if x == group[0] else group[0] if x == t else x
                        for x in range(n))
                  for groups in root_groups for group in groups for t in group[1:]]
    leaves: dict = {}   # leaf rows -> the world order that first gave them
    stack = [iter([(root, [], root_groups)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        colors, fixed, cell_groups = node
        if cell_groups is None:
            cell_groups = (_twin_groups(relations, cell)
                           for cell in _cells(colors) if len(cell) > 1)
        groups = next((groups for groups in cell_groups if len(groups) > 1), None)
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


def _kept_coordinates(frame: Frame, k: int) -> np.ndarray:
    """The k-valuation coordinates of ``frame`` that no automorphism
    generator maps to a smaller one, ascending.

    Coordinate c is the c-th valuation in ``iproduct`` order, so variable
    i's mask is bits n(k-1-i) .. n(k-i)-1 of c.  Each generator g, checked
    to be an automorphism first, keeps c iff c <= c∘g, the valuation
    pulled back along g; the least coordinate of each orbit passes every
    such test.
    """
    n = frame.n
    coords = np.arange(1 << n * k, dtype=np.int64)
    if k == 0:
        return coords
    relations = (frame.r1, frame.r2)
    for g in automorphism_generators(relations, n):
        if any(pull_rows(rows, g) != rows for rows in relations):
            continue    # a map that is no automorphism could drop an orbit
        # bit w of each mask takes bit g[w]: bits moving alike move together
        moves: dict[int, int] = {}
        for j in range(k):
            for w, x in enumerate(g):
                moves[x - w] = moves.get(x - w, 0) | 1 << j * n + w
        image = np.zeros_like(coords)
        for shift, mask in moves.items():
            image |= (coords >> shift if shift >= 0 else coords << -shift) & mask
        coords = coords[coords <= image]
    return coords


def _packed_ranks(first: np.ndarray, columns: Iterable[np.ndarray],
                  base: int) -> tuple[np.ndarray, int]:
    """Lexicographic ranks of the tuples read across ``first`` and then
    ``columns`` (of one length, entries in [0, base)), and their number.

    They fold into one int64 key, key * base + column.  The first column
    may pass the base (a colour, when ``_keys`` refines), so its bound is
    its maximum plus one.  A key below ``bound`` folds to below
    bound * base, and the key is first replaced by its ranks whenever that
    would pass 2^62, so no fold wraps.  A pair that passes it even from
    ranks (in a free count, only with 2^31 entries or more) is ranked as a
    pair.
    """
    key, bound = first.astype(np.int64), int(first.max()) + 1
    for column in columns:
        if bound * base > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
            if bound * base > 1 << 62:
                _, key = np.unique(np.stack((key, column), 1), axis=0,
                                   return_inverse=True)
                bound = int(key.max()) + 1
                continue
        key, bound = key * base + column, bound * base
    _, ranks = np.unique(key, return_inverse=True)
    return ranks, int(ranks.max()) + 1


# Frames refined at once by ``_keys``, whose numpy temporaries grow with
# the batch: ``all_preorders(8)`` keys the 38,280 children of the 7-point
# posets in blocks no slower than at once, with a peak of 62 MB, not 105.
_BLOCK = 1 << 12


def _keys(batch: Sequence[tuple[tuple[int, ...], ...]], n: int) -> list[tuple]:
    """Keys of the relation tuples of ``batch`` (n worlds each, one number
    of relations) that two of them share iff they are isomorphic: each is
    a relabelled copy of its frame.

    Every frame is colour-refined at once on numpy arrays, from its loop
    bits.  Each step keys a world by its colour and by its number of
    successors and predecessors, in each relation, in each cell of its own
    frame (cells numbered by their rank in the frame), ranked batch-wide,
    until no colour splits.  Isomorphic frames get equal colours along the
    isomorphism, so they take the same route.  A frame whose every cell is
    one group of twins is a single leaf, whose rows pulled along its colour
    order are its key: ordering twins otherwise is an automorphism.  Any
    other frame, and any frame past int64 masks, is keyed by
    ``canonical_key``.  Ranks keep the order of the step keys, so a frame's
    colours come in the same order, and it gets the same key, in any
    batch; ``_BLOCK`` frames at a time are refined."""
    if n == 0:
        return [(0, ((),) * len(batch[0]))] * len(batch)
    if n > 62:
        return [canonical_key(relations, n) for relations in batch]
    if len(batch) > _BLOCK:
        return [key for start in range(0, len(batch), _BLOCK)
                for key in _keys(batch[start:start + _BLOCK], n)]
    frames = np.arange(len(batch))
    worlds = np.arange(n)
    rows = np.array(batch, np.int64)   # frame, relation, world -> row mask
    transposes = np.zeros_like(rows)
    for w in worlds:
        transposes |= (rows[:, :, w, None] >> worlds & 1) << w
    adjacency = np.concatenate((rows, transposes), 1)
    # the loop bits start the colours, and the first step adds the degrees
    colors, count = _packed_ranks(np.zeros(len(batch) * n, np.int64),
                                  (rows >> worlds & 1).transpose(1, 0, 2)
                                  .reshape(rows.shape[1], -1), 2)
    while True:
        grid = colors.reshape(-1, n)
        order = np.argsort(grid, axis=1, kind="stable")   # new -> old world
        ordered = np.take_along_axis(grid, order, 1)
        ranks = np.empty_like(order)
        splits = np.diff(ordered, axis=1, prepend=ordered[:, :1]) != 0
        np.put_along_axis(ranks, order, splits.cumsum(1), 1)
        cells = np.zeros_like(ranks)
        for w in worlds:
            cells[frames, ranks[:, w]] |= 1 << w
        colors, refined = _packed_ranks(
            colors, (np.bitwise_count(relation & cells[:, c, None]).ravel()
                     for relation in adjacency.transpose(1, 0, 2)
                     for c in range(ranks.max() + 1)), n + 1)
        if refined == count:
            break
        count = refined
    # a cell is one group of twins iff each world is the twin of its first
    lowest = cells & -cells
    v = np.take_along_axis(np.bitwise_count(lowest - 1), ranks, 1)[:, None, :]
    rv = np.take_along_axis(adjacency, v, 2)
    leaf = (((rv ^ adjacency) & ~(1 << v | 1 << worlds) == 0)
            & (rv >> v & 1 == adjacency >> worlds & 1)
            & (rv >> worlds & 1 == adjacency >> v & 1)).all((1, 2))
    pulled = np.take_along_axis(rows, order[:, None, :], 2)
    leaf_rows = np.zeros_like(pulled)
    for j in worlds:
        leaf_rows |= (pulled >> order[:, None, j, None] & 1) << j
    return [(n, tuple(map(tuple, pulled_rows))) if is_leaf
            else canonical_key(relations, n)
            for relations, is_leaf, pulled_rows in zip(batch, leaf, leaf_rows.tolist())]


def iso_distinct(frames, relations=attrgetter("r1", "r2")):
    """The first of the frames of each isomorphism class, in input order.
    ``relations`` reads an item's relation tuple.  The items of one world
    count and number of relations are keyed together, by ``_keys``."""
    frames = list(frames)
    batches: dict = {}
    for i, f in enumerate(frames):
        rels = relations(f)
        batches.setdefault((len(rels[0]), len(rels)), []).append((i, rels))
    first: dict = {}
    for (n, _), batch in batches.items():
        for (i, _), key in zip(batch, _keys([rels for _, rels in batch], n)):
            first.setdefault(key, i)
    return [frames[i] for i in sorted(first.values())]


@lru_cache(maxsize=None)
def _poset_group(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of the poset but the identity (world -> image),
    ``automorphism_generators`` closed under composition.  The enumeration
    keeps the least candidate of each orbit of this group: a missing map
    would keep duplicate classes and a map that is no automorphism would
    lose classes, so a generator that is none raises.  Unbounded, as its
    keys are finite: its callers pass only posets of ``_posets`` tables."""
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
    smaller tables nest at most k deep.  Unbounded, as its keys are
    finite: the k up to the largest n asked of ``all_preorders``."""
    if k == 0:
        return ((),)
    return tuple(iso_distinct(_children(_posets(k - 1)),
                              relations=lambda rows: (rows,)))


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


def all_preorders(n: int) -> tuple[UniFrame, ...]:
    """All preorders on n worlds, one per isomorphism class: each poset P
    of each table blown up by each composition s of n with s∘g >= s for
    every g in Aut(P).

    No key is needed.  The poset of clusters is an isomorphism invariant,
    so preorders over different posets are not isomorphic, and (P, s) and
    (P, s') are isomorphic exactly when s' = s∘g for some g in Aut(P).
    Compositions come in ascending order, so the least of each orbit is the
    first of its class, which keying every candidate would keep.  Over
    k = n points the only composition is all ones.  Not cached: each call
    builds its frames anew from the cached ``_posets`` tables."""
    check_int(n, "n")
    if n < 1:
        raise FormatError("need at least one world")
    out = []
    for k in range(1, n + 1):
        for poset in _posets(k):
            group = _poset_group(poset) if k < n else ()
            out += (_preorder_from(poset, sizes) for sizes in _compositions(n, k)
                    if all(tuple(sizes[i] for i in g) >= sizes for g in group))
    return tuple(out)


def linear_preorders(n: int) -> tuple[UniFrame, ...]:
    """Linear preorders (chains of clusters) on n worlds, up to isomorphism:
    one per composition of n."""
    check_int(n, "n")
    if n < 1:
        raise FormatError("need at least one world")
    out = []
    for k in range(1, n + 1):
        for sizes in _compositions(n, k):
            chain_poset = tuple(((1 << k) - 1 >> i) << i for i in range(k))
            out.append(_preorder_from(chain_poset, sizes))
    return tuple(out)


def all_bimodal_frames(n: int) -> tuple[Frame, ...]:
    """All bimodal frames on n worlds up to isomorphism (n <= 2 only; the
    labelled space grows as 2^(2 n^2))."""
    check_int(n, "n", 1)
    if n > 2:
        raise FormatError("exhaustive bimodal enumeration is provided for n <= 2")
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

"""Frame enumeration with isomorphism rejection, and seeded samplers.

Preorders are generated as (poset of clusters, cluster sizes).  The posets
on k points are grown from the (k-1)-table, keeping the first child of each
isomorphism type, which gives the tuple that growing every labelled prefix
gives (``_posets`` says why); sizes run over all compositions, and
duplicates are removed by canonical keys, whose search never permutes
twins.  Bimodal frames are enumerated exhaustively for n <= 2; beyond that
the samplers provide seeded pseudorandom corpora.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from random import Random

from .frames import (Frame, UniFrame, pull_rows, rt_closure, transpose_rows,
                     twins, worlds_of)


def _color_classes(relations: tuple[tuple[int, ...], ...], n: int) -> list[list[int]]:
    """Worlds grouped by an iterated degree/loop invariant, classes ordered by
    the (relabelling-invariant) color values.  Any isomorphism maps class i of
    one frame onto class i of the other, so the canonical permutation search
    only needs to assign each class's worlds to that class's index block."""
    transposes = [transpose_rows(rows, n) for rows in relations]
    colors: list = [
        tuple((rows[w] >> w & 1, rows[w].bit_count(), t[w].bit_count())
              for rows, t in zip(relations, transposes))
        for w in range(n)
    ]
    for _ in range(n):
        nxt = [
            (colors[w],
             tuple((tuple(sorted(colors[x] for x in worlds_of(rows[w]))),
                    tuple(sorted(colors[x] for x in worlds_of(t[w]))))
                   for rows, t in zip(relations, transposes)))
            for w in range(n)
        ]
        if len(set(nxt)) == len(set(colors)):
            break
        colors = nxt
    classes: dict = {}
    for w in range(n):
        classes.setdefault(colors[w], []).append(w)
    return [classes[c] for c in sorted(classes)]


def _arrangements(labels: list[int]):
    """Each distinct ordering of the sorted list ``labels``, in lexicographic
    order, by Knuth's algorithm L (TAOCP 7.2.1.2)."""
    a = list(labels)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(a) - 1
        while a[j] >= a[m]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1:] = a[:j:-1]


def _class_orders(relations: tuple[tuple[int, ...], ...],
                  cls: list[int]) -> list[tuple[int, ...]]:
    """One ordering of a colour class per arrangement of its twin groups.
    Permuting twins is an automorphism of every relation, so it leaves the
    pulled rows as they are: which twin stands at a position never matters,
    only which group it comes from."""
    groups: list[list[int]] = []
    for w in cls:
        for group in groups:
            if all(twins(rows, group[0], w) for rows in relations):
                group.append(w)
                break
        else:
            groups.append([w])
    labels = [g for g, group in enumerate(groups) for _ in group]
    orders = []
    for arrangement in _arrangements(labels):
        nxt = [iter(group) for group in groups]
        orders.append(tuple(next(nxt[g]) for g in arrangement))
    return orders


def canonical_key(relations: tuple[tuple[int, ...], ...], n: int) -> tuple:
    """Minimum relabelling of the relation tuple; equal keys mean isomorphic.
    The search runs over the colour classes' twin-group arrangements, which
    reach every relabelled relation tuple that a permutation search reaches."""
    best = None
    for parts in iproduct(*(_class_orders(relations, c)
                            for c in _color_classes(relations, n))):
        order = [w for part in parts for w in part]   # new world -> old world
        candidate = tuple(pull_rows(rows, order) for rows in relations)
        if best is None or candidate < best:
            best = candidate
    return (n, best)


def frame_key(f: Frame) -> tuple:
    return canonical_key((f.r1, f.r2), f.n)


def uniframe_key(u: UniFrame) -> tuple:
    return canonical_key((u.rows,), u.n)


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
    The cached calls for smaller tables nest at most k deep."""
    if k == 0:
        return ((),)
    return tuple(iso_distinct(_children(_posets(k - 1)),
                              key=lambda rows: canonical_key((rows,), k)))


def _children(table: tuple[tuple[int, ...], ...]):
    """Each poset of the table with a new maximal point above each of its
    down-closed subsets."""
    for rows in table:
        top = len(rows)
        below = transpose_rows(rows, top)   # the points below each point
        for subset in range(1 << top):
            if all(below[w] & ~subset == 0 for w in worlds_of(subset)):
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
    """All preorders on n worlds, one per isomorphism class."""
    if n < 1:
        raise ValueError("need at least one world")
    return tuple(iso_distinct((_preorder_from(poset, sizes)
                               for k in range(1, n + 1)
                               for poset in _posets(k)
                               for sizes in _compositions(n, k)),
                              key=uniframe_key))


@lru_cache(maxsize=None)
def linear_preorders(n: int) -> tuple[UniFrame, ...]:
    """Linear preorders (chains of clusters) on n worlds, up to isomorphism:
    one per composition of n."""
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

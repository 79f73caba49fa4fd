"""Frame enumeration with isomorphism rejection, and seeded samplers.

Preorders are generated as (poset of clusters, cluster sizes): posets on
k points are produced by the add-a-maximal-element recursion (which
covers every isomorphism type), sizes run over all compositions, and
duplicates are removed by canonical-form hashing.  Bimodal frames are
enumerated exhaustively for n <= 2; beyond that the samplers provide
seeded pseudorandom corpora.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product as iproduct
from random import Random

from .frames import (Frame, UniFrame, pull_rows, rt_closure, transpose_rows,
                     worlds_of)


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


def canonical_key(relations: tuple[tuple[int, ...], ...], n: int) -> tuple:
    """Minimum relabelling of the relation tuple; equal keys mean isomorphic."""
    best = None
    for parts in iproduct(*(permutations(c) for c in _color_classes(relations, n))):
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
    isomorphism type, each with the identity as a linear extension."""
    if k == 0:
        return ((),)

    def down_closed(rows: tuple[int, ...], subset: int) -> bool:
        for w in worlds_of(subset):
            below = 0
            for v in range(len(rows)):
                if rows[v] >> w & 1:
                    below |= 1 << v
            if below & ~subset:
                return False
        return True

    def extend(rows: tuple[int, ...]):
        """Recursive, one level per point: the depth is bounded by k."""
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

    return tuple(iso_distinct(extend(()),
                              key=lambda rows: canonical_key((rows,), k)))


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

"""Finite modal-algebra computations: generated subalgebras, free-algebra
counting, layered block systems, and point-definability certificates.

A set algebra over n worlds is a family of masks containing the empty
and the full set and closed under complement, intersection, and the two
diamond preimages.  One partition refinement serves all three
computations: worlds are split by their variable profile and then, step
by step, by the sets of current blocks met through r1 and through r2,
until a step splits nothing.  The stable partition is the coarsest
valuation-respecting auto-bisimulation.  On a finite model its blocks
are the atoms of the subalgebra generated by the valuation, so that
subalgebra consists of all unions of them; a block system keeps each
step as a layer; and a free algebra is 2 to the number of blocks of the
disjoint union of all its valued coordinate models.

A single model is refined in pure Python (``_refinements``), which is
cheaper than numpy's per-call cost on a few dozen worlds.  A free count
refines the coordinates of every frame at once on numpy arrays
(``_coordinate_classes``), since it runs on up to millions of worlds: a
sorting network makes each world's successor types a canonical set, and
one packed int64 key per world ranks its type and sets.  It keeps only
the coordinates ``enumeration._kept_coordinates`` keeps, those that no
automorphism generator of their frame maps to a smaller one: a
valuation and its image along an automorphism give isomorphic valued
models, whose worlds are bisimilar pairwise, and the least coordinate of
each orbit is always kept, so the number of classes stays exact.

A point-definability certificate beta(r) = alpha(r) & γ differs between
the roots of one generated subframe only in alpha(r).  The subframe, its
block system, the definers, γ and γ's extension in the source model are
built once per frame, valuation and reachable set (``_definers``), and
each call evaluates its own alpha(r) and intersects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterator, Sequence

import numpy as np

from .errors import (DEFAULT_BUDGET, BudgetExceeded, CapExceeded, FormatError,
                     NotDefinable, NotPretransitive, check_int, value_text)
from .enumeration import _kept_coordinates, _packed_ranks
from .formulas import (And, Box, Dia, Formula, Imp, Not, Top, Var, box_star,
                       conj, disj)
from .frames import (Frame, _parse_set, all_unions, bitstring, compose_rows,
                     diagonal, fibers, preimage, pull, pull_rows,
                     restrict_frame, rt_closure, union_rows, worlds_of)
from .semantics import Model, eval_formula


@dataclass(frozen=True)
class SetAlgebra:
    """A verified set algebra."""

    n: int
    elements: tuple[int, ...]        # sorted in bitstring order

    def __post_init__(self):
        index = set(self.elements)
        full = (1 << self.n) - 1
        if 0 not in index or full not in index:
            raise FormatError("set algebra must contain the empty and full sets")


# --- partition refinement ---------------------------------------------------

def _refinements(adj1: Sequence[Sequence[int]], adj2: Sequence[Sequence[int]],
                 profiles: Sequence[tuple]) -> Iterator[list[int]]:
    """Successive type lists (world -> block id, ids numbered in order of
    first world) of the model given by successor lists and per-world
    variable profiles.

    The first list splits by profile; each later one also by the sets of
    current types met through r1 and through r2.  A step keeps the current
    type in its key, so it only refines, and the lists end after the first
    step that splits nothing: the last list is the coarsest
    profile-respecting bisimulation.
    """
    ids: dict[tuple, int] = {}
    types = [ids.setdefault(p, len(ids)) for p in profiles]
    yield types
    while True:
        count = len(ids)
        ids = {}
        types = [ids.setdefault((t, frozenset(types[x] for x in s1),
                                 frozenset(types[x] for x in s2)), len(ids))
                 for t, s1, s2 in zip(types, adj1, adj2)]
        yield types
        if len(ids) == count:
            return


def _model_refinements(frame: Frame, masks: Sequence[int]) -> Iterator[list[int]]:
    """Type lists of the model on ``frame`` valuing variable i by masks[i]."""
    return _refinements([worlds_of(row) for row in frame.r1],
                        [worlds_of(row) for row in frame.r2],
                        [tuple(m >> w & 1 for m in masks) for w in range(frame.n)])


def _blocks(types: list[int]) -> tuple[int, ...]:
    """Block masks of a type list in id order, which is least-world order."""
    return tuple(fibers(types, max(types, default=-1) + 1))


def generated_subalgebra(frame: Frame, gens: Sequence[int | str],
                         cap: int = 1_000_000) -> SetAlgebra:
    """Subalgebra of the frame's powerset algebra generated by ``gens``.

    Built from its atoms, the coarsest-bisimulation blocks of the model
    valuing variable i by gens[i]: the elements are all unions of atoms,
    listed directly in bitstring order.  Raises CapExceeded carrying the
    exact size when it is larger than ``cap``.
    """
    check_int(cap, "cap")
    gens = [_parse_set(g, frame.n, "generator {}", i) for i, g in enumerate(gens)]
    for types in _model_refinements(frame, gens):
        pass
    atoms = _blocks(types)
    size = 1 << len(atoms)
    if size > cap:
        raise CapExceeded(size, cap)
    return SetAlgebra(frame.n, all_unions(atoms))


# --- block systems --------------------------------------------------------

@dataclass(frozen=True)
class BlockSystem:
    """Layered partitions: layer i is the equivalence induced by all
    formulas of modal depth < i over the model's variables."""

    n: int
    layers: tuple[tuple[int, ...], ...]    # layer -> blocks (masks)
    stabilization: int | None              # first i with layer i+1 == layer i

    @property
    def stabilized(self) -> tuple[int, ...] | None:
        if self.stabilization is None:
            return None
        return self.layers[self.stabilization]


def block_system(m: Model, max_layers: int | None = None) -> BlockSystem:
    """Layered block system, stopping at stabilization or ``max_layers``.

    Layer 0 is the one-block partition and layer i + 1 the i-th type list
    of the refinement.  Stationarity only follows from a fixpoint of the
    successor step, not from the variables-only first step: with no
    variables, layer 1 equals layer 0 even when layer 2 still splits
    successor-free worlds.  ``max_layers`` is None or a nonnegative int.
    """
    if max_layers is not None:
        check_int(max_layers, "max_layers", 0)
    frame = m.kripke
    if frame.n < 1:
        raise FormatError("block systems need at least one world")
    layers: list[tuple[int, ...]] = [(frame.full,)]
    stabilization = None
    for types in _model_refinements(frame, list(m.valuation.values())):
        if max_layers is not None and len(layers) > max_layers:
            break
        nxt = _blocks(types)
        if len(layers) > 1 and nxt == layers[-1]:
            # fixpoint of the successor step; earliest equal layer is the index
            stabilization = layers.index(nxt)
            del layers[stabilization + 1:]
            break
        layers.append(nxt)
    return BlockSystem(frame.n, tuple(layers), stabilization)


# --- free-algebra counting -------------------------------------------------

def _sorting_network(width: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge network on
    ``width`` slots (Knuth's merge exchange): the one on the next power of
    two without the comparators past ``width``, as +inf slots never move.
    Not cached: it takes microseconds, next to the sort's numpy passes."""
    pairs, top = [], 1 << (width - 1).bit_length() >> 1
    p = top
    while p:
        q, r, d = top, 0, p
        while d:
            pairs += [(i, i + d) for i in range(width - d) if i & p == r]
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _sort_columns(a: np.ndarray) -> None:
    """Sort every column of the 2-d array ``a`` in place."""
    low = np.empty(a.shape[1], a.dtype)
    for i, j in _sorting_network(len(a)):
        np.minimum(a[i], a[j], out=low)
        np.maximum(a[i], a[j], out=a[j])
        a[i] = low


def _coordinate_classes(frames: Sequence[Frame], k: int) -> int:
    """Bisimulation classes of the disjoint union of every k-valued
    coordinate model of ``frames`` (frames with worlds only), refined over
    the kept coordinates of each frame.

    Types sit in one flat array and a sentinel slot holding ``count``.  Per
    relation, a D x total index holds the slots of each world's successors,
    padded with the sentinel slot.  Each step makes every gathered column a
    set (sorted, repeats made the sentinel, sorted again) and ranks the
    current type with the rows before the first all-padding one.  Types
    are shared across frames, so equal valued models count once.
    """
    kept = [_kept_coordinates(f, k) for f in frames]
    ends = np.cumsum([f.n * c.size for f, c in zip(frames, kept)])
    total = int(ends[-1])
    # the slot of world 0 of each kept coordinate, frame by frame
    starts = [np.arange(e - f.n * c.size, e, f.n)
              for f, c, e in zip(frames, kept, ends)]
    dtype = np.int32 if total < np.iinfo(np.int32).max else np.int64
    indexes = []
    for relation in (0, 1):
        succ = [[worlds_of(row) for row in (f.r1, f.r2)[relation]] for f in frames]
        index = np.full((max(len(s) for ss in succ for s in ss), total), total, dtype)
        for start, ss in zip(starts, succ):
            for w, s in enumerate(ss):
                index[:len(s), start + w] = start + np.array(s)[:, None]
        indexes.append(index)
    # variable i holds at world w of coordinate c iff bit n(k-1-i) + w of c
    # is set: the first types split by that profile
    bits = (np.concatenate([(c[:, None] >> f.n * (k - 1 - i) + np.arange(f.n) & 1)
                            .ravel() for f, c in zip(frames, kept)])
            for i in range(k))
    types = np.empty(total + 1, dtype)
    types[:total], count = _packed_ranks(np.zeros(total, dtype), bits, 2)

    def rows():
        for index in indexes:
            sets = types[index]
            # blocks of 2^14 columns keep a comparator's rows in cache
            for block in np.split(sets, range(1 << 14, total, 1 << 14), axis=1):
                _sort_columns(block)
                block[1:][block[1:] == block[:-1]] = count
                _sort_columns(block)
            for row in sets:
                if row.min() == count:
                    break
                yield row

    while True:
        types[total] = count
        ranks, refined = _packed_ranks(types[:total], rows(), count + 1)
        if refined == count:
            return count
        types[:total], count = ranks, refined


def free_algebra_count(frames: Sequence[Frame], k: int,
                       cap: int = 1_000_000,
                       budget: int = DEFAULT_BUDGET) -> int:
    """Number of inequivalent k-formulas over the logic of ``frames``.

    Counted as the size of the subalgebra of the product algebra over all
    (frame, k-valuation) coordinates generated by the variable tuples.  That
    subalgebra is a finite Boolean algebra, so its size is 2 to the number
    of its atoms, and the atoms are exactly the bisimulation types of the
    disjoint union of all the valued models, refined for all coordinates
    at once on numpy arrays.

    Only one coordinate of each automorphism orbit is needed, and the
    refinement runs on the coordinates that no generator maps lower
    (``_kept_coordinates``).  The count stays exact: an automorphism g is
    an isomorphism from the model valued by c∘g onto the one valued by c,
    so each dropped model is isomorphic to the least model of its orbit,
    which is kept; its worlds are bisimilar to kept worlds, and dropping
    whole models changes no bisimilarity among the rest.  The budget
    still counts every coordinate.  Raises CapExceeded carrying the exact
    count when it is larger than ``cap``.
    """
    check_int(k, "k", 0)
    check_int(cap, "cap")
    check_int(budget, "budget")
    total_coords = sum((1 << f.n) ** k for f in frames)
    if total_coords > budget:
        raise BudgetExceeded(total_coords, budget, "coordinates")
    frames = [f for f in frames if f.n]
    if not frames:
        return 1  # the degenerate one-element algebra: no coordinate has a world
    count = 1 << _coordinate_classes(frames, k)
    if count > cap:
        raise CapExceeded(count, cap)
    return count


def naive_free_algebra_count(frames: Sequence[Frame], k: int,
                             cap: int = 1_000_000) -> int:
    """Independent oracle: literally close the generator tuples of the
    product algebra under the operations, and count."""
    coords: list[tuple[Frame, tuple[int, ...]]] = []
    for f in frames:
        for theta in iproduct(range(1 << f.n), repeat=k):
            coords.append((f, theta))
    if not coords:
        return 1
    fulls = tuple(f.full for f, _ in coords)
    gens = [tuple(theta[i] for _, theta in coords) for i in range(k)]
    elements: set[tuple[int, ...]] = set()
    queue: list[tuple[int, ...]] = []

    def add(t: tuple[int, ...]):
        if t not in elements:
            elements.add(t)
            queue.append(t)
            if len(elements) > cap:
                raise CapExceeded(len(elements), cap)

    add(fulls)
    for g in gens:
        add(tuple(g))
    while queue:
        u = queue.pop()
        add(tuple(f ^ x for f, x in zip(fulls, u)))
        add(tuple(preimage(fr.r1, x) for (fr, _), x in zip(coords, u)))
        add(tuple(preimage(fr.r2, x) for (fr, _), x in zip(coords, u)))
        for v in list(elements):
            add(tuple(x & y for x, y in zip(u, v)))
    return len(elements)


# --- definable points -------------------------------------------------------

@dataclass(frozen=True)
class DefinabilityCertificate:
    """A formula true at exactly one point, with its building blocks and a
    verification transcript."""

    world: int
    alpha: dict[int, Formula]     # submodel world (source numbering) -> definer
    gamma: Formula
    beta: Formula
    depth: int
    transcript: tuple[str, ...]


@lru_cache(maxsize=32)
def _reachability(frame: Frame) -> tuple[tuple[int, ...], bool]:
    """The (r1|r2)-reachability rows of ``frame`` and whether they equal
    the union with the diagonal and its square (2-transitivity)."""
    union = frame.union()
    reach = rt_closure(union, frame.n)
    two = union_rows(union_rows(diagonal(frame.n), union),
                     compose_rows(union, union))
    return reach, two == reach


@lru_cache(maxsize=32)
def _definers(frame: Frame, valuation: tuple[tuple[int, int], ...], reach: int):
    """What every root generating the subframe on ``reach`` shares: the
    subframe worlds, the stabilisation layer, each world's definer, γ and
    γ's extension in the source model, all in source numbering."""
    sub, keep = restrict_frame(frame, reach)   # keep: subframe -> source world
    local_val = {v: pull(mask, keep) for v, mask in valuation}
    system = block_system(Model(sub, local_val))
    stable = system.stabilized
    for b in stable:
        if b & (b - 1):
            raise NotDefinable(keep[(b & -b).bit_length() - 1],
                               "block system does not stabilise at singletons")

    def literals(w: int) -> list[Formula]:
        return [Var(v) if mask >> w & 1 else Not(Var(v))
                for v, mask in local_val.items()]

    # characteristic formula of each block, built layer by layer: layer 1
    # blocks are variable classes (literals alone); from layer 2 on, a
    # block's successor-met sets over the previous layer are uniform across
    # the block, so the representative's sets describe every member
    char: dict[int, Formula] = {sub.full: Top()}
    for i in range(1, len(system.layers)):
        prev = system.layers[i - 1]
        prev_of = {}
        for idx, b in enumerate(prev):
            for w in worlds_of(b):
                prev_of[w] = idx
        nxt: dict[int, Formula] = {}
        for b in system.layers[i]:
            w = (b & -b).bit_length() - 1
            parts: list[Formula] = literals(w)
            if i > 1:
                for mod, rows in ((1, sub.r1), (2, sub.r2)):
                    met = sorted({prev_of[x] for x in worlds_of(rows[w])})
                    parts.extend(Dia(mod, char[prev[j]]) for j in met)
                    parts.append(Box(mod, disj([char[prev[j]] for j in met])))
            nxt[b] = conj(parts)
        char.update(nxt)

    # stabilised blocks are singletons, so indexing definers by world is total
    alpha_local = {}
    for b in stable:
        w = (b & -b).bit_length() - 1
        alpha_local[w] = And(conj(literals(w)), char[b])

    edge_parts: list[Formula] = []
    non_edge_parts: list[Formula] = []
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
    gamma_ext = eval_formula(Model(frame, dict(valuation)), gamma)
    alpha = {keep[w]: f for w, f in alpha_local.items()}
    return keep, system.stabilization, alpha, gamma, gamma_ext


def beta_formula(m: Model, r: int) -> DefinabilityCertificate:
    """Point-definability formula for world ``r``.

    Requires the frame to be 2-transitive for r1 | r2 (so the syntactic
    box-star expresses reachability) and the block system of the subframe
    generated by r to stabilise at singletons.  The certificate's formula
    evaluates to exactly {r} in the source model; a world elsewhere in the
    model that is modally indistinguishable from a generated-subframe world
    makes the target undefinable.

    Only alpha(r) depends on r.  The reachability rows are computed once
    per frame, and the subframe, its block system, every definer, γ and
    γ's extension in the source model once per frame, valuation and
    generated subframe (``_definers``); each root then evaluates only its
    own alpha(r).  The check is unchanged: the extension of
    beta = alpha(r) & γ is the intersection of its children's extensions,
    which is what evaluating beta whole computes.
    """
    check_int(r, "world", 0)
    frame = m.kripke
    if r >= frame.n:
        raise FormatError(f"world {value_text(r)} out of range")
    reach_rows, two_transitive = _reachability(frame)
    if not two_transitive:
        raise NotPretransitive(
            "frame is not 2-transitive for the union relation")
    keep, stabilization, alpha, gamma, gamma_ext = _definers(
        frame, tuple(sorted(m.valuation.items())), reach_rows[r])
    beta = And(alpha[r], gamma)

    extension = eval_formula(m, alpha[r]) & gamma_ext
    if extension != 1 << r:
        stray = worlds_of(extension ^ (1 << r))
        raise NotDefinable(stray[0],
                           f"worlds {stray} are indistinguishable from {r}")
    depth = beta.depth
    transcript = (
        f"generated subframe has {len(keep)} worlds: {keep}",
        f"block system stabilises at layer {stabilization}",
        f"beta({r}) has modal depth {depth}",
        f"extension {bitstring(extension, frame.n)} equals {{{r}}}",
    )
    return DefinabilityCertificate(r, dict(alpha), gamma, beta, depth, transcript)

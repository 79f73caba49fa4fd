"""Formula evaluation on models, validity over (general) frames, and
refutation-witness search.

One walk evaluates every formula: a loop over a node order
(``formulas.nodes``, children before parents).  The walk only combines
values with ``^``, ``&``, ``|`` and a preimage function, so it runs on a
single model (int world masks) and on the search (numpy arrays of masks).
Search cells are the narrowest unsigned type that holds n bits (``uint8``
up to 8 worlds, then 16, 32 and 64 bits, Python ints above), and up to 16
worlds a preimage is one ``take`` from a table indexed by the mask, each
modality's table fetched once per search.

``valid`` and ``refutes_witness`` read a plan built once per formula and
cached (``_Plan``): the node order, the occurring variables and
modalities and, on the first search that needs them, the modal regions.
A region is a part of the formula that is a function of one node's
value, its base, and holds a modal step.  A search over more than one
block on at most 16 worlds walks each region once over every mask of its
base into a table, and each block evaluates the region with one ``take``,
so verdicts and least witnesses stay bit for bit those of the plain node
order.  A one-block search lays out no blocks: it walks the plain order
once, every axis whole, as tables would cost more than the block.

Validity is brute force over valuations, enumerated only over the
variables occurring in the formula; a variable-free formula is decided by
one evaluation.  Candidate sets are every subset of the worlds for a Kripke
frame and the admissible algebra for a general frame, always in bitstring
order.  In the search, occurring variable j is broadcast axis j, so a
subformula is only materialised over the axes of the variables it mentions.
The assignment space is walked block by block in C order, which puts the
lowest variable in the most significant position; the first falsifying
cell of the first block that has one (an ``argmax``) is therefore the
lexicographically least witness.

A formula is valid on a frame iff it is valid on every point-generated
subframe, and for a general frame on every such subframe with the
restricted algebra.  Above one block, ``valid`` therefore searches each
distinct maximal subframe generated by a single world, stopping at the
first refuted one; below that one walk covers the whole frame and the
split would only add cost.  The parts are built on each call: the caches
here hold masks, tables and plans, never a frame.  ``refutes_witness``
always searches the whole frame: its lexicographically least witness is
not the least witness of any one part.  The budget and the 24-world limit of the powerset apply
before any search, to the sum of valuation x world cells over all parts
searched and to each part's world count.

On a part above one block, ``valid`` also factors out each maximal
separable subformula, a proper one whose variables occur nowhere else in
the formula (``bh(k-1,1)`` in ``bh(k,1)``).  The block loop collects its
reachable extensions, its values under every valuation of its variables,
and searches the outer formula with a fresh variable ranging over them:
exact, as the outer formula reads the part only through its value.  Parts
split in turn, so ``bh(4,1)`` on five worlds is three searches of at most
32 x 32 cells.  ``refutes_witness`` is not factored, as its witness is
over the formula's own variables; budget and limits are judged on the
exhaustive space.

If such a Kripke part's formula does not split and has k >= 2 variables,
its first variable ranges over ``enumeration._kept_coordinates(part, 1)``
alone, which holds the least mask of each orbit of the part's
automorphisms: exact for verdicts, as an automorphism's image of a
refuting valuation refutes.  ``refutes_witness``, collecting searches,
general frames (whose algebra the automorphisms may not keep) and
batches walk every mask.

``valid_each`` decides a list of formulas on a list of frames, one row of
verdicts per frame.  It refuses every (frame, formula) size, frame by
frame, before any search, and then decides each formula on each distinct
part once: the parts are those ``check_size`` returns (a one-block frame
is its own part), compared by equality.  This is exact, as a verdict on a
part is a function of its relations, its algebra and the formula, and a
frame is valid iff every part is.  For a formula with variables, the
distinct Kripke parts with n > 0 worlds whose space is one block go in
batches of one world count, ``_BLOCK >> n*k`` parts at most, and a batch
is one walk with a leading frame axis: the leaves broadcast over it, and a
preimage is one ``take`` from the parts' stacked tables, part i's at entry
``i << n | x``.  Every other part (general, empty or above one block) is
searched alone, as ``valid`` searches it, when a frame first needs it, so a
frame still stops at its first refuted part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import prod
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .enumeration import _kept_coordinates
from .errors import DEFAULT_BUDGET, BudgetExceeded, FormatError, check_int, value_text
from .formulas import (_ARITY, And, Bot, Box, Dia, Formula, Iff, Imp, Not,
                       Or, ReachBox, ReachDia, Top, Var, _rebuild, nodes)
from .frames import (Frame, GeneralFrame, kripke_of, preimage, restrict_frame,
                     restrict_general, rt_closure)

# cells per evaluated block of the assignment space
_BLOCK = 1 << 14


@dataclass(frozen=True)
class Model:
    """A frame together with a valuation (variable index -> world mask).

    For general frames every valuation set must be admissible.
    """

    frame: Frame | GeneralFrame
    valuation: Mapping[int, int]

    def __post_init__(self):
        full = kripke_of(self.frame).full
        for v, mask in self.valuation.items():
            check_int(v, "variable index", 0)
            if type(mask) is not int or mask < 0 or mask & ~full:
                raise FormatError(f"valuation of p{v} must be an int mask within "
                                  f"the frame, got {value_text(mask)}")
        if isinstance(self.frame, GeneralFrame):
            admissible = set(self.frame.algebra)
            for v, mask in self.valuation.items():
                if mask not in admissible:
                    raise FormatError(f"valuation of p{v} is not admissible")

    @property
    def kripke(self) -> Frame:
        return kripke_of(self.frame)


class _Gather(NamedTuple):
    """A program step: ``node``'s value is ``table.take(value of base)``,
    where ``table`` holds the value of ``region``, a node order ending in
    ``node``, for every mask of ``base``."""

    node: Formula
    base: Formula
    region: list[Formula]
    table: np.ndarray | None = None  # a search fills it in


def _walk(order: list, leaves: Mapping, full, pre: Callable, seed=()):
    """Extension of the last formula of ``order``, a node order from
    ``nodes`` or a search program: variable v is ``leaves.get(v, 0)``, the
    nodes of ``seed`` (node -> value) are given, and ``pre(mod, x)`` is
    the set of worlds with a ``mod``-successor in x, where mod 0 is the
    reflexive-transitive closure of r1 | r2."""
    val: dict[Formula, object] = dict(seed)
    for g in order:  # the most frequent node kinds first
        t = type(g)
        if t is And:
            r = val[g.left] & val[g.right]
        elif t is _Gather:
            val[g.node] = r = g.table.take(val[g.base])
            continue
        elif t is Dia:
            r = pre(g.mod, val[g.child])
        elif t is Imp:
            r = (full ^ val[g.left]) | val[g.right]
        elif t is Not:
            r = full ^ val[g.child]
        elif t is Var:
            r = leaves.get(g.index, 0)
        elif t is Or:
            r = val[g.left] | val[g.right]
        elif t is Box:
            r = full ^ pre(g.mod, full ^ val[g.child])
        elif t is Iff:
            r = full ^ (val[g.left] ^ val[g.right])
        elif t is Top:
            r = full
        elif t is Bot:
            r = full ^ full  # zero of the same kind as full
        elif t is ReachDia:
            r = pre(0, val[g.child])
        else:
            r = full ^ pre(0, full ^ val[g.child])
        val[g] = r
    return r


def _preimage_fn(frame: Frame, image: Callable) -> Callable:
    """``pre`` for the walk, applying ``image(rows, x)`` to the relation of
    a modality; the closure for mod 0 is computed on first use."""
    relations = {1: frame.r1, 2: frame.r2}

    def pre(mod: int, x):
        rows = relations.get(mod)
        if rows is None:
            rows = relations[0] = frame.relation(0)
        return image(rows, x)

    return pre


def eval_formula(m: Model, f: Formula) -> int:
    """Extension of ``f`` in the model, as a world mask.  Variables absent
    from the valuation evaluate to the empty set; ReachDia/ReachBox are read
    through the reflexive-transitive closure of r1 | r2."""
    frame = m.kripke
    return _walk(nodes(f), m.valuation, frame.full, _preimage_fn(frame, preimage))


@dataclass(frozen=True)
class Witness:
    """A falsifying valuation together with the least falsified world."""

    valuation: tuple[tuple[int, int], ...]
    world: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.valuation)


def _cell_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integer type holding a mask over n worlds:
    ``uint8`` up to 8 worlds, then 16, 32 and 64 bits, ``object`` above."""
    for bits in (8, 16, 32, 64):
        if n <= bits:
            return np.dtype(f"uint{bits}")
    return np.dtype(object)


@lru_cache(maxsize=16)
def _all_sets(n: int) -> np.ndarray:
    """Every subset of n worlds as ``_cell_dtype(n)`` masks, in bitstring
    order (that of ``frames.all_unions`` of the singletons): each world
    doubles the sets so far, the last one, world 0, most significant.
    Cached read-only; the arrays for distinct n sum to under twice the
    largest."""
    dtype = _cell_dtype(n)
    sets = np.zeros(1 << n, dtype)
    size = 1
    for w in reversed(range(n)):
        np.bitwise_or(sets[:size], dtype.type(1 << w), out=sets[size:2 * size])
        size *= 2
    sets.flags.writeable = False
    return sets


def _preimage_tables(relations: list, n: int) -> np.ndarray:
    """Preimage of every mask over n <= 16 worlds under each relation (a
    tuple of rows), all in one array: relation i's at ``i << n | mask``, in
    cells of ``_cell_dtype(n)``."""
    dtype = _cell_dtype(n)
    hit = (np.array(relations, dtype)[:, :, None] & np.arange(1 << n, dtype=dtype)) != 0
    return (hit << np.arange(n, dtype=dtype)[:, None]).sum(1, dtype=dtype).ravel()


@lru_cache(maxsize=256)
def _preimage_table(rows: tuple[int, ...], n: int) -> np.ndarray:
    """Preimage of every mask over n <= 16 worlds, indexed by the mask."""
    return _preimage_tables([rows], n)


def _array_image(n: int) -> Callable:
    """Preimage of arrays of ``_cell_dtype(n)`` masks over n > 16 worlds,
    where a table would be too large: a row-wise OR over world rows."""
    dtype = _cell_dtype(n)
    cell = dtype.type

    def image(rows, x):
        x = np.asarray(x, dtype)
        out = np.zeros(x.shape, dtype)
        for i, row in enumerate(rows):
            out |= ((x & cell(row)) != 0).astype(dtype) << cell(i)
        return out

    return image


def _least_missing_world(mask: int, full: int) -> int:
    missing = full & ~mask
    return (missing & -missing).bit_length() - 1


def _space(g: Frame | GeneralFrame) -> int:
    """Number of candidate sets one variable ranges over."""
    return len(g.algebra) if isinstance(g, GeneralFrame) else 1 << kripke_of(g).n


def _check_size(parts: list, k: int, budget: int) -> None:
    """Refuse a search over ``parts`` before it starts: past 24 worlds for a
    powerset, or when its valuation x world cells, summed over the parts,
    exceed the budget."""
    check_int(budget, "budget")
    needed = 0
    for g in parts:
        n = kripke_of(g).n
        if k and not isinstance(g, GeneralFrame) and n > 24:
            raise FormatError("powerset valuation space only supported for n <= 24")
        needed += _space(g) ** k * n
    if needed > budget:
        raise BudgetExceeded(needed, budget, unit="cells (valuations times worlds)")


def _maximal_parts(g: Frame | GeneralFrame) -> list:
    """The subframes generated by single worlds that no other one contains,
    in order of their least generating world; ``[g]`` when ``g`` is rooted.
    Not cached, so no part carries an equal frame's ``spec``."""
    frame = kripke_of(g)
    cones = list(dict.fromkeys(rt_closure(frame.union(), frame.n)))
    tops = [m for m in cones if not any(m != o and m & o == m for o in cones)]
    if len(tops) == 1:
        return [g]
    if isinstance(g, GeneralFrame):
        return [restrict_general(g, m) for m in tops]
    return [restrict_frame(g, m)[0] for m in tops]


def _children(g: Formula) -> tuple:
    arity = _ARITY[type(g)]
    return () if arity == 0 else (g.child,) if arity == 1 else (g.left, g.right)


class _Plan:
    """What every search of one formula shares: its node order, its
    occurring variables, the modalities it reads and, built on the first
    search that needs them, its fused program and its split."""

    def __init__(self, f: Formula):
        self.order = nodes(f)
        self.occurring = sorted({g.index for g in self.order if type(g) is Var})
        self.mods = {g.mod if type(g) in (Dia, Box) else 0 for g in self.order
                     if type(g) in (Dia, Box, ReachDia, ReachBox)}

    @cached_property
    def fused(self) -> list:
        """The node order with each gather in place of its region.  A
        node's base is the node its value is a function of: a variable is
        its own base and a constant has none; a unary node takes its
        child's base and a binary node its children's common base,
        constants aside, or itself when the two differ.  A node needed
        outside its base's region whose region holds a modal step is a
        gather, and the region's other nodes leave the program."""
        base, modal = {}, {}
        for g in self.order:
            kids = _children(g)
            bases = {base[c] for c in kids} - {None}
            b = g if type(g) is Var or len(bases) > 1 else next(iter(bases), None)
            base[g] = b
            modal[g] = b is not None and b is not g and (
                type(g) in (Dia, Box, ReachDia, ReachBox) or any(modal[c] for c in kids))
        used = {self.order[-1]}
        for g in reversed(self.order):
            if g in used:
                used.update((base[g],) if modal[g] else _children(g))
        return [_Gather(g, base[g], [h for h in nodes(g) if h is not base[g]
                                     and base[h] in (base[g], None)])
                if modal[g] else g for g in self.order if g in used]

    @cached_property
    def split(self) -> tuple[_Plan, dict[int, _Plan]] | None:
        """The plan of the formula with each maximal separable part replaced
        by a fresh variable, and each fresh variable's part's plan; None
        when there is no such part.  A separable part mentions some but not
        all of the variables, and every path from the root to one of them
        passes through it: its paths in times its paths to the variable
        are all the root's paths to the variable."""
        order, root = self.order, self.order[-1]
        below: dict[Formula, Counter] = {}  # node -> variable -> paths to it
        for g in order:
            below[g] = Counter({g.index: 1}) if type(g) is Var else \
                sum((below[c] for c in _children(g)), Counter())
        into = dict.fromkeys(order, 0)  # node -> paths from the root to it
        into[root], top, fresh, outside = 1, below[root], {}, {root}
        for g in reversed(order):  # parents first: into[g] is complete
            for c in _children(g):
                into[c] += into[g]
            if g not in outside:
                continue
            if type(g) is not Var and 0 < len(below[g]) < len(top) and all(
                    into[g] * m == top[v] for v, m in below[g].items()):
                fresh[self.occurring[-1] + 1 + len(fresh)] = g
            else:
                outside.update(_children(g))
        if not fresh:
            return None
        return _plan(_rebuild(root, {s: Var(v) for v, s in fresh.items()}, False)), \
            {v: _plan(s) for v, s in fresh.items()}


_plan = lru_cache(maxsize=1024)(_Plan)


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` without its masked-array check, which imports numpy.ma."""
    a = np.sort(a, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _blocks(occurring: list[int], axes: list, leaves: dict):
    """(head, lo, leaves) of each block of a space above one block, in C
    order: the axes before the cut one are fixed at ``head``, the cut one
    takes ``step`` values from ``lo`` on, the later ones are whole."""
    k, sizes = len(axes), list(map(len, axes))
    a, tail = k - 1, 1
    while a and tail * sizes[a] <= _BLOCK:
        tail *= sizes[a]
        a -= 1
    step = max(1, _BLOCK // tail)
    for head in iproduct(*map(range, sizes[:a])):
        for lo in range(0, sizes[a], step):
            block = {**leaves, **{v: x[i] for v, x, i in zip(occurring, axes, head)}}
            block[occurring[a]] = axes[a][lo:lo + step].reshape((-1,) + (1,) * (k - 1 - a))
            yield head, lo, block


def _search_refutation(g: Frame | GeneralFrame | list[Frame], plan: _Plan,
                       lists: Mapping[int, np.ndarray] = {},
                       collect: bool = False) -> Witness | np.ndarray | None:
    """The least witness over the whole of ``g`` for the formula planned by
    ``plan``, or with ``collect`` the sorted array of its distinct
    extensions.  Variable v ranges over ``lists[v]``, an array of
    ``_cell_dtype(n)`` masks, when given, and over every candidate set
    otherwise; the caller checks size.  For a batch (a list of frames, see
    the module docstring) it is the array of the frames' verdicts.  A
    space of at most ``_BLOCK`` cells is one walk with every axis whole; a
    larger one is walked block by block (``_blocks``), and the first
    refuted cell of the first block that has one is the least witness."""
    batch = g if isinstance(g, list) else None
    frame = kripke_of(g) if batch is None else batch[0]
    n, full = frame.n, frame.full
    if n == 0:
        return None  # everything holds vacuously on the empty frame
    occurring = plan.occurring
    k = len(occurring)
    if not k:  # no valuation to choose: one evaluation decides
        ext = _walk(plan.order, {}, full, _preimage_fn(frame, preimage))
        return None if ext == full else Witness((), _least_missing_world(ext, full))

    dtype = _cell_dtype(n)
    cand_arr = (np.array(g.algebra, dtype=dtype) if isinstance(g, GeneralFrame)
                else _all_sets(n))
    axes = [lists.get(v, cand_arr) for v in occurring] if lists else [cand_arr] * k
    sizes = list(map(len, axes))
    cell_full = np.array(full, dtype)  # 0-d: cheaper in ``full ^ x`` than a scalar
    if n > 16:
        pre = _preimage_fn(frame, _array_image(n))
    elif batch is None:  # each table fetched once, then one ``take`` per preimage
        tables = {mod: _preimage_table(frame.relation(mod), n) for mod in plan.mods}

        def pre(mod: int, x):
            return tables[mod].take(x)
    else:  # frame i of the batch reads its tables from entry i << n on
        offsets = (np.arange(len(batch)) << n).reshape((-1,) + (1,) * k)
        tables = {mod: _preimage_tables([h.relation(mod) for h in batch], n)
                  for mod in plan.mods}

        def pre(mod: int, x):
            return tables[mod].take(offsets + x)
    leaves = {v: x.reshape((-1,) + (1,) * (k - 1 - j))
              for j, (v, x) in enumerate(zip(occurring, axes))}
    program, blocks = plan.order, [((), 0, leaves)]
    if prod(sizes) > _BLOCK:
        blocks = _blocks(occurring, axes, leaves)
        if n <= 16:
            masks = np.arange(1 << n, dtype=dtype)
            program = [h._replace(table=_walk(h.region, {}, cell_full, pre, {h.base: masks}))
                       if type(h) is _Gather else h for h in plan.fused]
    seen = []
    for head, lo, block in blocks:
        res = _walk(program, block, cell_full, pre)
        if collect:
            seen.append(_distinct(res))
            continue
        if batch is not None:  # one block: a verdict per frame; a value
            # with no modal step has no frame axis, as all frames agree
            res = np.broadcast_to(res, (len(batch), *sizes))
            return (res == cell_full).reshape(len(batch), -1).all(1)
        flat = res.ravel()
        bad = flat != cell_full
        i = int(bad.argmax())  # the first refuted cell, if there is one
        if bad[i]:  # the block's axes are the cut one, then the whole ones
            cell = np.unravel_index(i, res.shape)
            index = head + (lo + cell[0],) + cell[1:]
            return Witness(tuple((v, int(x[j])) for v, x, j in zip(occurring, axes, index)),
                           _least_missing_world(int(flat[i]), full))
    return _distinct(np.concatenate(seen)) if collect else None


def _factored(g: Frame | GeneralFrame, plan: _Plan) -> tuple[_Plan, dict]:
    """The plan and lists ``valid`` searches on ``g``: above one block, the
    outer formula of the split with each fresh variable ranging over its
    part's reachable extensions."""
    if _space(g) ** len(plan.occurring) <= _BLOCK or plan.split is None:
        return plan, {}
    outer, parts = plan.split
    return outer, {v: _search_refutation(g, *_factored(g, part), collect=True)
                   for v, part in parts.items()}


def check_size(g: Frame | GeneralFrame, f: Formula,
               budget: int = DEFAULT_BUDGET) -> list:
    """Raise what ``valid(g, f, budget)`` raises before it searches, or
    return what it searches: ``[g]`` when the space is one block, else the
    maximal parts."""
    k = len(_plan(f).occurring)
    parts = [g] if _space(g) ** k <= _BLOCK else _maximal_parts(g)
    _check_size(parts, k, budget)
    return parts


def _holds(p: Frame | GeneralFrame, plan: _Plan) -> bool:
    """Whether the formula planned by ``plan`` is valid on the part ``p``,
    orbit-restricted where the module docstring says."""
    plan, lists = _factored(p, plan)
    k = len(plan.occurring)
    if not lists and k > 1 and not isinstance(p, GeneralFrame) and _space(p) ** k > _BLOCK:
        lists = {plan.occurring[0]: _kept_coordinates(p, 1).astype(_cell_dtype(p.n))}
    return _search_refutation(p, plan, lists) is None


def valid(g: Frame | GeneralFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff ``f`` evaluates to the full set under every valuation drawing
    values from the frame's algebra (full powerset for Kripke frames).

    Above one block of the assignment space each maximal point-generated
    subframe is searched on its own, up to the first refuted one, with
    each separable part factored out."""
    plan = _plan(f)
    return all(_holds(p, plan) for p in check_size(g, f, budget))


def _column(parts: list[list], plan: _Plan) -> list[bool]:
    """For each frame, given by the parts ``check_size`` returns for it,
    whether the formula planned by ``plan`` is valid on every part, each
    distinct part decided once (see the module docstring)."""
    k = len(plan.occurring)
    batches: dict[int, list] = {}  # world count -> distinct parts to batch
    for p in dict.fromkeys(p for ps in parts for p in ps):
        if k and not isinstance(p, GeneralFrame) and p.n and 1 << p.n * k <= _BLOCK:
            batches.setdefault(p.n, []).append(p)
    verdicts = {}
    for n, batch in batches.items():
        step = _BLOCK >> n * k
        for lo in range(0, len(batch), step):
            chunk = batch[lo:lo + step]
            verdicts.update(zip(chunk, _search_refutation(chunk, plan).tolist()))

    def holds(p) -> bool:
        if p not in verdicts:
            verdicts[p] = _holds(p, plan)
        return verdicts[p]
    return [all(map(holds, ps)) for ps in parts]


def valid_each(frames: list, formulas: list,
               budget: int = DEFAULT_BUDGET) -> list[tuple[bool, ...]]:
    """``[tuple(valid(g, f, budget) for f in formulas) for g in frames]``,
    with every size refused, in that (frame, formula) order, before any
    search.  For each formula, each distinct part of the frames is decided
    once: the batched ones in one walk per batch, the others alone, when a
    frame first needs them (see the module docstring)."""
    check_int(budget, "budget")
    parts = [[check_size(g, f, budget) for f in formulas] for g in frames]
    columns = [_column([row[j] for row in parts], _plan(f))
               for j, f in enumerate(formulas)]
    return [tuple(column[i] for column in columns) for i in range(len(frames))]


def refutes_witness(g: Frame | GeneralFrame, f: Formula,
                    budget: int = DEFAULT_BUDGET) -> Witness | None:
    """The lexicographically least falsifying (valuation, world) pair, or
    None when the formula is valid.  Always a search of the whole frame."""
    plan = _plan(f)
    _check_size([g], len(plan.occurring), budget)
    return _search_refutation(g, plan)

"""Formula evaluation on models, validity over (general) frames, and
refutation-witness search.

One recursive walk evaluates every formula.  It only combines values with
``^``, ``&``, ``|`` and a preimage function, so the same walk runs on a
single model (int world masks) and on the search (numpy arrays of masks).

Validity is brute force over valuations, enumerated only over the
variables occurring in the formula; a variable-free formula is decided by
one evaluation.  Candidate sets are every subset of the worlds for a Kripke
frame and the admissible algebra for a general frame, always in bitstring
order.  In the search, occurring variable j is broadcast axis j, so a
subformula is only materialised over the axes of the variables it mentions.
The assignment space is walked block by block in C order, which puts the
lowest variable in the most significant position; the first falsifying
cell is therefore the lexicographically least witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceeded, FormatError
from .formulas import (And, Bot, Box, Dia, Formula, Iff, Imp, Not, Or,
                       ReachDia, Top, Var, variables)
from .frames import (Frame, GeneralFrame, full_algebra, kripke_of, preimage,
                     rt_closure)

DEFAULT_BUDGET = 1 << 20

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
            if v < 0:
                raise FormatError(f"variable index {v} is negative")
            if mask < 0 or mask & ~full:
                raise FormatError(f"valuation of p{v} is out of range")
        if isinstance(self.frame, GeneralFrame):
            admissible = set(self.frame.algebra)
            for v, mask in self.valuation.items():
                if mask not in admissible:
                    raise FormatError(f"valuation of p{v} is not admissible")

    @property
    def kripke(self) -> Frame:
        return kripke_of(self.frame)


def _walk(f: Formula, leaves: Mapping, full, pre: Callable):
    """Extension of ``f``: variable v is ``leaves.get(v, 0)`` and
    ``pre(mod, x)`` is the set of worlds with a ``mod``-successor in x,
    where mod 0 is the reflexive-transitive closure of r1 | r2."""
    memo: dict[int, object] = {}

    def go(g: Formula):
        r = memo.get(id(g))
        if r is not None:
            return r
        if isinstance(g, Var):
            r = leaves.get(g.index, 0)
        elif isinstance(g, Bot):
            r = full ^ full  # zero of the same kind as full
        elif isinstance(g, Top):
            r = full
        elif isinstance(g, Not):
            r = full ^ go(g.child)
        elif isinstance(g, And):
            r = go(g.left) & go(g.right)
        elif isinstance(g, Or):
            r = go(g.left) | go(g.right)
        elif isinstance(g, Imp):
            r = (full ^ go(g.left)) | go(g.right)
        elif isinstance(g, Iff):
            r = full ^ (go(g.left) ^ go(g.right))
        elif isinstance(g, Dia):
            r = pre(g.mod, go(g.child))
        elif isinstance(g, Box):
            r = full ^ pre(g.mod, full ^ go(g.child))
        elif isinstance(g, ReachDia):
            r = pre(0, go(g.child))
        else:
            r = full ^ pre(0, full ^ go(g.child))
        memo[id(g)] = r
        return r

    try:
        return go(f)
    finally:
        memo.clear()  # go is a reference cycle; free the values now, not at gc


def _preimage_fn(frame: Frame, image: Callable) -> Callable:
    """``pre`` for the walk, applying ``image(rows, x)`` to the relation of
    a modality; the closure for mod 0 is computed on first use."""
    relations = {1: frame.r1, 2: frame.r2}

    def pre(mod: int, x):
        rows = relations.get(mod)
        if rows is None:
            rows = relations[0] = rt_closure(frame.union(), frame.n)
        return image(rows, x)

    return pre


def eval_formula(m: Model, f: Formula) -> int:
    """Extension of ``f`` in the model, as a world mask.  Variables absent
    from the valuation evaluate to the empty set; ReachDia/ReachBox are read
    through the reflexive-transitive closure of r1 | r2."""
    frame = m.kripke
    return _walk(f, m.valuation, frame.full, _preimage_fn(frame, preimage))


@dataclass(frozen=True)
class Witness:
    """A falsifying valuation together with the least falsified world."""

    valuation: tuple[tuple[int, int], ...]
    world: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.valuation)


@lru_cache(maxsize=256)
def _preimage_table(rows: tuple[int, ...], n: int) -> np.ndarray:
    """Preimage of every mask over n <= 16 worlds, indexed by the mask."""
    table = np.zeros(1 << n, dtype=np.uint64)
    masks = np.arange(1 << n, dtype=np.uint64)
    for i, row in enumerate(rows):
        table |= ((masks & row) != 0).astype(np.uint64) << i
    return table


def _array_image(n: int, dtype: np.dtype) -> Callable:
    """Preimage of arrays of masks: a table gather up to 16 worlds, a
    row-wise OR over world rows above that."""
    if n <= 16:
        return lambda rows, x: _preimage_table(rows, n)[x]
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


def _search_refutation(g: Frame | GeneralFrame, f: Formula,
                       budget: int) -> Witness | None:
    frame = kripke_of(g)
    n, full = frame.n, frame.full
    if n == 0:
        return None  # everything holds vacuously on the empty frame
    occurring = sorted(variables(f))
    k = len(occurring)
    general = isinstance(g, GeneralFrame)
    if k and not general and n > 24:
        raise FormatError("powerset valuation space only supported for n <= 24")
    total = (len(g.algebra) if general else 1 << n) ** k
    if total * n > budget:
        raise BudgetExceeded(total, budget)
    if not k:  # no valuation to choose: one evaluation decides
        ext = eval_formula(Model(frame, {}), f)
        return None if ext == full else Witness((), _least_missing_world(ext, full))

    cands = g.algebra if general else full_algebra(n)
    c = len(cands)
    dtype = np.dtype(np.uint64 if n <= 64 else object)
    cand_arr = np.array(cands, dtype=dtype)
    cell_full = dtype.type(full)
    pre = _preimage_fn(frame, _array_image(n, dtype))
    # Axes before `a` are fixed per block, axis `a` is cut into ranges of
    # `step` candidates and the later axes are whole.
    a = next(j for j in range(k) if c ** (k - 1 - j) <= _BLOCK)
    step = max(1, _BLOCK // c ** (k - 1 - a))
    whole = {v: cand_arr.reshape((c,) + (1,) * (k - 1 - j))
             for j, v in enumerate(occurring) if j > a}
    for head in iproduct(range(c), repeat=a):
        for lo in range(0, c, step):
            leaves = dict(whole)
            leaves.update((v, cand_arr[i]) for v, i in zip(occurring, head))
            leaves[occurring[a]] = cand_arr[lo:lo + step].reshape(
                (-1,) + (1,) * (k - 1 - a))
            res = _walk(f, leaves, cell_full, pre)
            bad = np.flatnonzero(res != cell_full)
            if bad.size:
                cell = np.unravel_index(bad[0], res.shape)
                index = head + (lo + int(cell[0]),) + tuple(map(int, cell[1:]))
                return Witness(
                    tuple((v, cands[i]) for v, i in zip(occurring, index)),
                    _least_missing_world(int(res.flat[bad[0]]), full))
    return None


def valid(g: Frame | GeneralFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff ``f`` evaluates to the full set under every valuation drawing
    values from the frame's algebra (full powerset for Kripke frames)."""
    return _search_refutation(g, f, budget) is None


def refutes_witness(g: Frame | GeneralFrame, f: Formula,
                    budget: int = DEFAULT_BUDGET) -> Witness | None:
    """The lexicographically least falsifying (valuation, world) pair, or
    None when the formula is valid."""
    return _search_refutation(g, f, budget)

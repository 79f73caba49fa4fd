"""p-morphism verification and search, plus sum combinations.

A world map is a plain tuple: entry a is the target world of source
world a.  Maps must be surjective; forth/back are checked for both
modalities and admissibility against the target's singletons plus its
algebra (preimages must be admissible in the source).

The search assigns source worlds in order, trying targets in ascending
order, with forward checking over bitmask target domains: it prunes only
values that cannot extend to a p-morphism, so it returns the same first
map in lexicographic order as plain backtracking.  Its budget still
bounds the raw |h| ** |g| map space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .constructions import _kind, cluster, product, tack, tack_pre
from .errors import BudgetExceeded, FormatError, check_int
from .frames import (Frame, GeneralFrame, analyze, bitstring, decode_json,
                     fibers, kripke_of, pull, pull_rows, transpose_rows,
                     worlds_of)

WorldMap = tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    """A failed p-morphism clause: which clause, for which modality (None for
    surjectivity/admissibility), and the witnessing worlds."""

    clause: str
    modality: int | None
    worlds: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        mod = f" modality {self.modality}" if self.modality else ""
        return f"{self.clause}{mod}: {self.detail}"


def check_pmorphism(g: Frame | GeneralFrame, h: Frame | GeneralFrame,
                    f: WorldMap) -> Violation | None:
    """None when ``f`` is a p-morphism from g onto h; otherwise the first
    violated clause in the order surjective, forth, back, admissibility."""
    src, tgt = kripke_of(g), kripke_of(h)
    f = tuple(f)
    if len(f) != src.n:
        raise FormatError(f"map has {len(f)} entries, source has {src.n} worlds")
    for a, d in enumerate(f):
        if not 0 <= d < tgt.n:
            raise FormatError(f"map sends world {a} to {d}, outside the target")
    fiber = fibers(f, tgt.n)
    for d in range(tgt.n):
        if not fiber[d]:
            return Violation("surjective", None, (d,),
                             f"target world {d} has no preimage")
    for mod in (1, 2):
        sr, tr = src.relation(mod), tgt.relation(mod)
        for a in range(src.n):
            for b in worlds_of(sr[a]):
                if not tr[f[a]] >> f[b] & 1:
                    return Violation(
                        "forth", mod, (a, b),
                        f"{a}->{b} in source but {f[a]}->{f[b]} not in target")
        for a in range(src.n):
            for d in worlds_of(tr[f[a]]):
                if not sr[a] & fiber[d]:
                    return Violation(
                        "back", mod, (a, d),
                        f"target sees {d} from {f[a]} = f({a}), "
                        f"but no successor of {a} maps there")
    if isinstance(g, GeneralFrame):
        admissible = set(g.algebra)
        wanted = [1 << d for d in range(tgt.n)]
        if isinstance(h, GeneralFrame):
            wanted += [u for u in h.algebra]
        for u in wanted:
            pre = pull(u, f)
            if pre not in admissible:
                return Violation(
                    "admissibility", None, tuple(worlds_of(u)),
                    f"preimage {bitstring(pre, src.n)} of target set "
                    f"{bitstring(u, tgt.n)} is not admissible")
    return None


def find_pmorphism(g: Frame | GeneralFrame, h: Frame | GeneralFrame,
                   budget: int = 1 << 20) -> WorldMap | None:
    """First p-morphism in lexicographic assignment order, or None after an
    exhaustive search.  The search does forward checking: every source world
    keeps a bitmask domain of the targets it may still take, and a value is
    pruned only when it cannot extend to a p-morphism, so the first map is
    the one plain backtracking finds.  The raw candidate space |h| ** |g|
    must fit the budget."""
    check_int(budget, "budget")
    src, tgt = kripke_of(g), kripke_of(h)
    ns, nt = src.n, tgt.n
    if ns == 0 or nt == 0:  # only the empty map onto the empty frame
        return () if ns == nt else None
    if nt ** ns > budget:
        raise BudgetExceeded(nt ** ns, budget, "candidate maps")
    # assigning a -> t leaves b only the targets table[t], for every pair
    # (rows, table) with b in rows[a]: a's r_i-successors keep r_i[t], its
    # r_i-predecessors the r_i-predecessors of t, its cluster t's cluster
    src_cluster, tgt_cluster = ([info.clusters[c] for c in info.cluster_index]
                                for info in (analyze(src), analyze(tgt)))
    links = [(src_cluster, tgt_cluster)]
    for sr, tr in ((src.r1, tgt.r1), (src.r2, tgt.r2)):
        links += [(sr, tr), (transpose_rows(sr, ns), transpose_rows(tr, nt))]
    narrow = [{} for _ in range(ns)]
    covers = [[(worlds_of(src.r1[x]), tgt.r1), (worlds_of(src.r2[x]), tgt.r2)]
              for x in range(ns)]
    for a in range(ns):
        for rows, table in links:
            for b in worlds_of(rows[a]):
                old = narrow[a].get(b, table)
                narrow[a][b] = [x & y for x, y in zip(old, table)]
    # readers[b]: the worlds whose back clauses read b's domain, its predecessors
    readers = transpose_rows(src.union(), ns)
    full = (1 << nt) - 1

    def alive(dom: list[int], check: int) -> bool:
        if not all(dom) or reduce(or_, dom) != full:
            return False  # a wiped-out domain, or a target nobody can take
        for x in worlds_of(check):  # the back clauses the assignment can break
            for succ, tr in covers[x]:
                if tr[dom[x].bit_length() - 1] & ~reduce(
                        or_, (dom[b] for b in succ), 0):
                    return False
        return True

    def extend(a: int, dom: list[int]):
        """The live domains after assigning ``a`` each of its targets.  The
        back clauses of worlds before ``a`` held in ``dom``; of those, only
        the ones reading a narrowed domain are checked again."""
        assigned = (1 << a) - 1
        for t in worlds_of(dom[a]):
            new = dom.copy()
            new[a] = 1 << t
            reread = 0 if dom[a] == new[a] else readers[a]
            for b, allowed in narrow[a].items():
                if new[b] & ~allowed[t]:
                    new[b] &= allowed[t]
                    reread |= readers[b]
            if alive(new, 1 << a | reread & assigned):
                yield new

    # depth-first over an explicit stack: stack[a] yields the domains with
    # worlds 0..a assigned, so the depth never meets the recursion limit
    stack = [extend(0, [full] * ns)]
    while stack:
        dom = next(stack[-1], None)
        if dom is None:
            stack.pop()
        elif len(stack) < ns:
            stack.append(extend(len(stack), dom))
        else:
            candidate = tuple(d.bit_length() - 1 for d in dom)
            if check_pmorphism(g, h, candidate) is None:
                return candidate
    return None


def tack_collapse(kind, m: int, mprime: int | None = None
                  ) -> tuple[Frame, Frame, WorldMap]:
    """The collapse map onto a tack frame, with its source and target.

    kind "both": product(tack_pre(m), tack_pre(m)) onto tack(both, m');
    kind "1":    product(tack_pre(m), cluster(m))  onto tack(1, m');
    kind "2":    product(cluster(m), tack_pre(m))  onto tack(2, m').

    Cluster excess collapses onto rectangle points; the top rows/columns and
    the top point collapse onto the target top.
    """
    kind = _kind(kind)
    check_int(m, "cluster size", 1)
    mp = m if mprime is None else mprime
    check_int(mp, "target size", 1)
    if mp > m:
        raise FormatError("target size must satisfy 1 <= m' <= m")
    if kind == "both":
        left, right = tack_pre(m), tack_pre(m)
    elif kind == "1":
        left, right = tack_pre(m), cluster(m)
    else:
        left, right = cluster(m), tack_pre(m)
    src = product(left, right)
    tgt = tack(kind, mp)
    top = mp * mp
    mapping = []
    for a in range(left.n):
        for b in range(right.n):
            a_top = kind in ("both", "1") and a == m
            b_top = kind in ("both", "2") and b == m
            if a_top or b_top:
                mapping.append(top)
            else:
                mapping.append(min(a, mp - 1) * mp + min(b, mp - 1))
    return src, tgt, tuple(mapping)


def load_worldmap(data) -> WorldMap:
    """Map JSON: an integer array indexed by source world."""
    data = decode_json(data)
    if not isinstance(data, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in data):
        raise FormatError("world map JSON must be an array of integers")
    return tuple(data)


def store_worldmap(f: WorldMap) -> bytes:
    return json.dumps(list(f)).encode("utf-8")


def blow_up(h: Frame, sizes: tuple[int, ...]) -> tuple[Frame, WorldMap]:
    """Replace each world w of ``h`` by ``sizes[w]`` bisimilar copies; the
    collapse back onto ``h`` is a p-morphism.  Used to produce valid
    p-morphism inputs in tests and examples."""
    if len(sizes) != h.n or any(s < 1 for s in sizes):
        raise FormatError("need a positive multiplicity per world")
    index = tuple(w for w in range(h.n) for _ in range(sizes[w]))
    return Frame(len(index), pull_rows(h.r1, index), pull_rows(h.r2, index)), index

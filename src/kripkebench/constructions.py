"""Builders for the frame families used throughout the workbench.

Disjoint unions renumber left-operand-first; products number world
(a,b) as a*|g|+b.  Every builder records a FrameSpec provenance tag.
"""

from __future__ import annotations

from .errors import FormatError, NotTense, check_int
from .frames import (Frame, FrameSpec, UniFrame, diagonal, fibers,
                     frame_property, full_rows, pull_rows, transpose_rows)

SUM_KINDS = ("both", "1", "2")


def _kind(kind) -> str:
    """A sum kind as "both", "1" or "2"; 1 and 2 may also be ints."""
    text = str(kind) if type(kind) is int else kind
    if text not in SUM_KINDS:
        raise FormatError(f"sum kind must be one of {SUM_KINDS}, got {kind!r}")
    return text


def cluster(m: int) -> UniFrame:
    """The m-element cluster (m, universal relation)."""
    check_int(m, "cluster size", 1)
    return UniFrame(m, full_rows(m))


def chain(m: int) -> UniFrame:
    """The m-element chain (m, <=)."""
    check_int(m, "chain length", 1)
    full = (1 << m) - 1
    return UniFrame(m, tuple((full >> i) << i for i in range(m)))


def tack_pre(m: int) -> UniFrame:
    """Preorder on m+1 worlds with a R b iff a < m or b = m: an m-cluster
    with a reflexive top point (finite surrogate of the tack preorder)."""
    check_int(m, "cluster size", 1)
    full = (1 << (m + 1)) - 1
    rows = tuple(full if a < m else 1 << m for a in range(m + 1))
    return UniFrame(m + 1, rows)


def product(f: UniFrame, g: UniFrame) -> Frame:
    """Product frame: r1 moves the first coordinate, r2 the second.  Each
    relation is a pullback along a coordinate map cut down to a fiber of the
    other one: r1 relates (a, b) to (c, d) iff a f-relates to c and d = b."""
    if f.n < 1 or g.n < 1:
        raise FormatError("product factors need at least one world")
    first = tuple(a for a in range(f.n) for _ in range(g.n))
    second = tuple(b for _ in range(f.n) for b in range(g.n))
    same_first, same_second = fibers(first, f.n), fibers(second, g.n)
    r1 = tuple(x & same_second[b] for x, b in zip(pull_rows(f.rows, first), second))
    r2 = tuple(x & same_first[a] for x, a in zip(pull_rows(g.rows, second), first))
    return Frame(f.n * g.n, r1, r2, spec=FrameSpec("product", (f.n, g.n)))


def rect(a: int, b: int) -> Frame:
    """Product of two clusters (an a-by-b rectangle)."""
    out = product(cluster(a), cluster(b))
    return Frame(out.n, out.r1, out.r2, spec=FrameSpec("rect", (a, b)))


def singleton() -> Frame:
    """The bimodal reflexive singleton."""
    return Frame(1, (1,), (1,), spec=FrameSpec("singleton"))


def ordered_sum(f: Frame, g: Frame, kind="both") -> Frame:
    """Place f below g: both relations keep their blocks; the cross block
    X x Y joins r1, r2, or both, depending on ``kind``."""
    kind = _kind(kind)
    n = f.n + g.n
    cross = ((1 << n) - 1) ^ ((1 << f.n) - 1)

    def block(fr, gr, add_cross):
        rows = [row | (cross if add_cross else 0) for row in fr]
        rows += [row << f.n for row in gr]
        return tuple(rows)

    r1 = block(f.r1, g.r1, kind in ("both", "1"))
    r2 = block(f.r2, g.r2, kind in ("both", "2"))
    return Frame(n, r1, r2, spec=FrameSpec("ordered_sum", (kind,)))


def tense_sum(f: Frame, g: Frame) -> Frame:
    """Tense sum: X x Y joins r1 and Y x X joins r2.  Inputs must be tense
    frames (r1 the converse of r2)."""
    for name, h in (("left", f), ("right", g)):
        if not frame_property(h, "tense"):
            raise NotTense(f"{name} operand is not a tense frame")
    n = f.n + g.n
    up = ((1 << n) - 1) ^ ((1 << f.n) - 1)
    down = (1 << f.n) - 1
    r1 = tuple(row | up for row in f.r1) + tuple(row << f.n for row in g.r1)
    r2 = tuple(f.r2) + tuple((row << f.n) | down for row in g.r2)
    return Frame(n, r1, r2, spec=FrameSpec("tense_sum"))


def tack(kind, m: int) -> Frame:
    """An m-by-m rectangle below a reflexive singleton."""
    out = ordered_sum(rect(m, m), singleton(), kind)
    return Frame(out.n, out.r1, out.r2, spec=FrameSpec("tack", (_kind(kind), m)))


def univ_chain(m: int) -> Frame:
    """The frame (m, <=, universal)."""
    c = chain(m)
    return Frame(m, c.rows, full_rows(m), spec=FrameSpec("univ_chain", (m,)))


def lintgrz(n: int) -> Frame:
    """The tense chain (n, <=, >=)."""
    c = chain(n)
    return Frame(n, c.rows, transpose_rows(c.rows, n), spec=FrameSpec("lintgrz", (n,)))


def swap_relations(f: Frame) -> Frame:
    return Frame(f.n, f.r2, f.r1, spec=FrameSpec("swap_relations"))


def match_frame(axis: int, kind, m: int) -> Frame:
    """Match frame: (m, <=, universal) for axis 1, its relation swap for
    axis 2, summed below a reflexive singleton via ``kind``."""
    if type(axis) is not int or axis not in (1, 2):
        raise FormatError(f"axis must be 1 or 2, got {axis!r}")
    base = univ_chain(m) if axis == 1 else swap_relations(univ_chain(m))
    out = ordered_sum(base, singleton(), kind)
    return Frame(out.n, out.r1, out.r2,
                 spec=FrameSpec("match_frame", (axis, _kind(kind), m)))


def lift(u: UniFrame) -> Frame:
    """Unimodal frame as (X, R, diagonal)."""
    return Frame(u.n, u.rows, diagonal(u.n), spec=FrameSpec("lift", (u.n,)))


"""Shared hypothesis strategies and small helpers."""

from __future__ import annotations

import hypothesis.strategies as st

from kripkebench.formulas import (And, Bot, Box, Dia, Iff, Imp, Not, Or,
                                  ReachBox, ReachDia, Top, Var)
from kripkebench.frames import Frame


def formulas(max_depth: int = 8, max_vars: int = 4, reach: bool = False):
    """Random formulas; ``reach`` adds the ReachDia/ReachBox operators."""
    leaves = st.one_of(
        st.integers(0, max_vars - 1).map(Var),
        st.just(Bot()),
        st.just(Top()),
    )

    def extend(children):
        unary = [children.map(ReachDia), children.map(ReachBox)] if reach else []
        return st.one_of(
            *unary,
            children.map(Not),
            st.tuples(st.sampled_from((1, 2)), children).map(lambda t: Dia(*t)),
            st.tuples(st.sampled_from((1, 2)), children).map(lambda t: Box(*t)),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Imp(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


@st.composite
def frames(draw, min_n: int = 1, max_n: int = 4):
    n = draw(st.integers(min_n, max_n))
    r1 = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    r2 = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return Frame(n, r1, r2)


@st.composite
def valuations(draw, n: int, max_vars: int = 2):
    k = draw(st.integers(0, max_vars))
    return {v: draw(st.integers(0, (1 << n) - 1)) for v in range(k)}


def disjoint_union(*parts: Frame) -> Frame:
    """The parts side by side, worlds numbered in order, with no edge
    between two parts."""
    r1, r2, shift = [], [], 0
    for f in parts:
        r1 += [row << shift for row in f.r1]
        r2 += [row << shift for row in f.r2]
        shift += f.n
    return Frame(shift, tuple(r1), tuple(r2))

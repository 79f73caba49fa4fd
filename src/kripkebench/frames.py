"""Finite bimodal Kripke frames and general frames.

Worlds are 0..n-1.  A relation is stored as a tuple of n row masks:
bit j of row i is set iff world i relates to world j.  World-sets are
plain int masks; their text form is a bitstring with index 0 leftmost,
so mask 0b01 on two worlds prints as "10".
"""

from __future__ import annotations

import json
import logging
import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import EmptyRestriction, FormatError, UnknownProperty

log = logging.getLogger(__name__)


# --- world-set and relation plumbing -----------------------------------

def bits_of(s: str) -> int:
    """Bitstring to mask, index 0 leftmost."""
    bad = s.strip("01")
    if bad:
        raise FormatError(f"non-binary digit {bad[0]!r} in bitstring {s!r}")
    return int(s[::-1], 2) if s else 0


def bitstring(mask: int, n: int) -> str:
    return format(mask & (1 << n) - 1, f"0{n}b")[::-1] if n else ""


def mask_of(worlds: Iterable[int]) -> int:
    mask = 0
    for w in worlds:
        mask |= 1 << w
    return mask


def worlds_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def diagonal(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def full_rows(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full for _ in range(n))


def transpose_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for i, row in enumerate(rows):
        for j in worlds_of(row):
            out[j] |= 1 << i
    return tuple(out)


def compose_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(i,k) in a∘b iff i -a-> j -b-> k for some j."""
    out = []
    for row in a:
        acc = 0
        m = row
        while m:
            low = m & -m
            acc |= b[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return tuple(out)


def union_rows(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x | y for x, y in zip(a, b))


def rt_closure(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Reflexive-transitive closure by iterated squaring."""
    cur = tuple(row | (1 << i) for i, row in enumerate(rows))
    while True:
        nxt = tuple(x | y for x, y in zip(cur, compose_rows(cur, cur)))
        if nxt == cur:
            return cur
        cur = nxt


def preimage(rows: tuple[int, ...], mask: int) -> int:
    """Worlds with some successor in ``mask`` (the diamond of a set)."""
    out = 0
    for i, row in enumerate(rows):
        if row & mask:
            out |= 1 << i
    return out


def pull(mask: int, f) -> int:
    """Worlds i with ``f[i]`` in ``mask``: a world-set pulled back along a
    world map."""
    out = 0
    for i, d in enumerate(f):
        if mask >> d & 1:
            out |= 1 << i
    return out


def fibers(f, n: int) -> list[int]:
    """The preimage of each world 0..n-1 along the world map ``f``."""
    out = [0] * n
    for i, d in enumerate(f):
        out[d] |= 1 << i
    return out


def pull_rows(rows: tuple[int, ...], f) -> tuple[int, ...]:
    """A relation pulled back along a world map: i relates to j iff ``f[i]``
    relates to ``f[j]``.  Relabelling, restriction to a subset and blowing
    worlds up into copies are all this, for a permutation, an injection and
    a surjection ``f``."""
    return compose_rows(tuple(rows[d] for d in f), fibers(f, len(rows)))


def twins(rows: tuple[int, ...], v: int, w: int) -> bool:
    """Whether swapping worlds v and w maps the relation onto itself: their
    rows agree outside {v, w} and on the loop and cross bits, and every
    other world relates to v iff it relates to w."""
    rv, rw = rows[v], rows[w]
    if (rv ^ rw) & ~(1 << v | 1 << w):
        return False
    if rv >> v & 1 != rw >> w & 1 or rv >> w & 1 != rw >> v & 1:
        return False
    return all(row >> v & 1 == row >> w & 1
               for x, row in enumerate(rows) if x != v and x != w)


def is_subrelation(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x & ~y == 0 for x, y in zip(a, b))


# --- frames -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FrameSpec:
    """Provenance tag: constructor name plus its parameters."""

    name: str
    params: tuple = ()


@dataclass(frozen=True, slots=True)
class Frame:
    n: int
    r1: tuple[int, ...]
    r2: tuple[int, ...]
    spec: FrameSpec | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise FormatError("world count must be nonnegative")
        full = (1 << self.n) - 1
        for name, rows in (("r1", self.r1), ("r2", self.r2)):
            if len(rows) != self.n:
                raise FormatError(f"{name} has {len(rows)} rows, expected {self.n}")
            for i, row in enumerate(rows):
                if row & ~full:
                    raise FormatError(f"{name} row {i} mentions worlds beyond {self.n}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def relation(self, mod: int) -> tuple[int, ...]:
        return self.r1 if mod == 1 else self.r2

    def union(self) -> tuple[int, ...]:
        return union_rows(self.r1, self.r2)


class UniFrame(NamedTuple):
    """Unimodal frame: world count plus one relation's rows."""

    n: int
    rows: tuple[int, ...]


def uniframe(n: int, rows) -> UniFrame:
    return UniFrame(n, _parse_rows(rows, n, "rows"))


def _parse_set(s, n: int, what: str, *args) -> int:
    """A world-set given as a bitstring of length n or as an integer mask.
    An error names it ``what.format(*args)``, formatted only when raised."""
    if isinstance(s, str):
        if len(s) != n:
            raise FormatError(f"{what.format(*args)} has length {len(s)}, expected {n}")
        return bits_of(s)
    if not isinstance(s, int) or isinstance(s, bool):
        raise FormatError(f"{what.format(*args)} must be a bitstring or an integer, got {s!r}")
    if s < 0 or s >> n:
        raise FormatError(f"{what.format(*args)} out of range for {n} worlds")
    return s


def _parse_rows(rows, n: int, what: str) -> tuple[int, ...]:
    if len(rows) != n:
        raise FormatError(f"{what} has {len(rows)} rows, expected {n}")
    return tuple(_parse_set(row, n, "{} row {}", what, i) for i, row in enumerate(rows))


@dataclass(frozen=True, slots=True)
class GeneralFrame:
    """Frame plus an admissible set algebra, verified at construction."""

    frame: Frame
    algebra: tuple[int, ...]

    def __post_init__(self):
        n = self.frame.n
        full = self.frame.full
        sets = list(self.algebra)
        if not sets:
            raise FormatError("algebra must be nonempty")
        index = set()
        for s in sets:
            if s < 0 or s & ~full:
                raise FormatError(f"algebra set {s} out of range for {n} worlds")
            if s in index:
                raise FormatError(f"algebra set {bitstring(s, n)} listed twice")
            index.add(s)
        for s in sets:
            if (full ^ s) not in index:
                raise FormatError("algebra not closed under complement: "
                                  f"~{bitstring(s, n)} = {bitstring(full ^ s, n)} missing")
        for which, rows in (("<1>", self.frame.r1), ("<2>", self.frame.r2)):
            for s in sets:
                pre = preimage(rows, s)
                if pre not in index:
                    raise FormatError(
                        f"algebra not closed under {which}-preimage of "
                        f"{bitstring(s, n)}: {bitstring(pre, n)} missing")
        for i, s in enumerate(sets):
            for t in sets[i + 1:]:
                if (s & t) not in index:
                    raise FormatError(
                        "algebra not closed under intersection: "
                        f"{bitstring(s, n)} & {bitstring(t, n)} = "
                        f"{bitstring(s & t, n)} missing")
        if 0 not in index or full not in index:
            raise FormatError("algebra must contain the empty and the full set")
        object.__setattr__(self, "algebra",
                           tuple(sorted(index, key=lambda m: bitstring(m, n))))

    @property
    def n(self) -> int:
        return self.frame.n


def all_unions(atoms: tuple[int, ...]) -> tuple[int, ...]:
    """Every union of the disjoint nonempty ``atoms``.  When they are sorted
    by least world the unions come in bitstring order: the first atom
    decides the first differing world, so it is the most significant."""
    masks = [0]
    for a in reversed(atoms):
        masks += [m | a for m in masks]
    return tuple(masks)


def full_algebra(n: int) -> tuple[int, ...]:
    """Every subset of n worlds, in bitstring order."""
    return all_unions(diagonal(n))


def as_general(f: Frame) -> GeneralFrame:
    """A Kripke frame seen as the general frame over its full powerset."""
    if f.n > 16:
        raise FormatError("full powerset algebra only materialised for n <= 16")
    return GeneralFrame(f, full_algebra(f.n))


def kripke_of(g: Frame | GeneralFrame) -> Frame:
    return g.frame if isinstance(g, GeneralFrame) else g


# --- serialization ------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise FormatError(f"repeated key {key!r}")
        out[key] = value
    return out


# one decoder for every document: ``json.loads`` with a hook builds a new
# decoder per call, which cost a frame load about a tenth of its time
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_json(data):
    """The document of JSON text or bytes (in any encoding ``json.loads``
    reads); any other value is taken as already decoded.  Malformed JSON,
    JSON nested past the recursion limit and an object that repeats a key
    raise FormatError."""
    if isinstance(data, (str, bytes, bytearray)):
        try:
            if not isinstance(data, str):
                data = data.decode(json.detect_encoding(data), "surrogatepass")
            return _DECODER.decode(data)
        except ValueError as e:  # also undecodable bytes
            raise FormatError(f"invalid JSON: {e}") from None
        except RecursionError:
            raise FormatError("invalid JSON: nested too deep") from None
    return data


def _json_object(data, what: str) -> dict:
    data = decode_json(data)
    if not isinstance(data, dict):
        raise FormatError(f"{what} JSON must be an object")
    return data


def load_frame(data) -> Frame | GeneralFrame:
    """Frame JSON: {"n": int, "r1": [row-bitstrings], "r2": [...],
    "algebra": optional [set-bitstrings]}.  Absent algebra means the full
    powerset (a plain Kripke frame is returned)."""
    data = _json_object(data, "frame")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError(f"frame JSON needs an integer field 'n', got {n!r}")
    if n < 0:
        raise FormatError("world count must be nonnegative")
    for key in ("r1", "r2"):
        if key not in data or not isinstance(data[key], list):
            raise FormatError(f"frame JSON needs a list field {key!r}")
    frame = Frame(n, _parse_rows(data["r1"], n, "r1"), _parse_rows(data["r2"], n, "r2"))
    if "algebra" not in data:
        return frame
    alg = data["algebra"]
    if not isinstance(alg, list):
        raise FormatError("algebra must be a list of set-bitstrings")
    return GeneralFrame(frame, tuple(_parse_set(s, n, "algebra set {!r}", s) for s in alg))


def load_valuation(data, n: int) -> dict[int, int]:
    """Valuation JSON over n worlds: {"p<index>": set-bitstring, ...}."""
    out = {}
    for key, bstr in _json_object(data, "valuation").items():
        if not re.fullmatch(r"p[0-9]+", key):
            raise FormatError(f"valuation key {key!r} is not a variable")
        if not isinstance(bstr, str) or len(bstr) != n:
            raise FormatError(f"valuation of {key} must be a bitstring of "
                              f"length {n}, got {bstr!r}")
        try:
            index = int(key[1:])
        except ValueError:  # more digits than the interpreter converts
            raise FormatError(f"valuation key {key[:12]}... has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
        if index in out:
            raise FormatError(f"valuation key {key!r} names variable p{index} again")
        out[index] = bits_of(bstr)
    return out


def store_frame(f: Frame | GeneralFrame) -> bytes:
    if isinstance(f, GeneralFrame):
        frame, algebra = f.frame, f.algebra
    else:
        frame, algebra = f, None
    doc = {
        "n": frame.n,
        "r1": [bitstring(row, frame.n) for row in frame.r1],
        "r2": [bitstring(row, frame.n) for row in frame.r2],
    }
    if algebra is not None:
        doc["algebra"] = [bitstring(s, frame.n) for s in algebra]
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# --- structural analysis -------------------------------------------------

@dataclass(frozen=True, slots=True)
class SkeletonInfo:
    """Clusters, the induced order on them, height, and per-world depth."""

    cluster_index: tuple[int, ...]   # world -> cluster id
    clusters: tuple[int, ...]        # cluster id -> member mask
    order: tuple[int, ...]           # cluster id -> mask of clusters above or equal
    height: int
    depth: tuple[int, ...]           # world -> height of its generated subframe

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def analyze(f: Frame) -> SkeletonInfo:
    if f.n < 1:
        raise FormatError("analysis needs at least one world")
    reach = rt_closure(f.union(), f.n)
    inv = transpose_rows(reach, f.n)
    cluster_index = [-1] * f.n
    clusters: list[int] = []
    for w in range(f.n):
        if cluster_index[w] >= 0:
            continue
        members = reach[w] & inv[w]
        cid = len(clusters)
        clusters.append(members)
        for v in worlds_of(members):
            cluster_index[v] = cid
    k = len(clusters)
    order = pull_rows(reach, [worlds_of(m)[0] for m in clusters])
    # a cluster strictly above c has fewer clusters above it than c has, so
    # ascending counts reach every cluster after all the clusters above it
    chain_len = [0] * k
    for c in sorted(range(k), key=lambda c: order[c].bit_count()):
        above = worlds_of(order[c] & ~(1 << c))
        chain_len[c] = 1 + max((chain_len[d] for d in above), default=0)
    depth = tuple(chain_len[cluster_index[w]] for w in range(f.n))
    return SkeletonInfo(tuple(cluster_index), tuple(clusters), order,
                        max(chain_len), depth)


def _is_reflexive(rows, n) -> bool:
    return all(rows[i] >> i & 1 for i in range(n))


def _is_transitive(rows) -> bool:
    return is_subrelation(compose_rows(rows, rows), rows)


def _is_symmetric(rows, n) -> bool:
    return rows == transpose_rows(rows, n)


def frame_property(f: Frame, prop: str, params=()) -> bool:
    """Exact first-order check of a named frame condition by enumeration."""
    params = tuple(params)
    if prop == "com":
        return compose_rows(f.r1, f.r2) == compose_rows(f.r2, f.r1)
    if prop == "cr":
        for x in range(f.n):
            for y in worlds_of(f.r1[x]):
                for z in worlds_of(f.r2[x]):
                    if not (f.r2[y] & f.r1[z]):
                        return False
        return True
    if prop == "rp":
        if len(params) != 1 or type(params[0]) is not int or params[0] < 0:
            raise UnknownProperty("rp needs a chain length parameter m, an int >= 0")
        # rp(m) fails iff a path x0 .. x(m+1) of distinct worlds has no step
        # x(i) -> x(j), j >= i + 2.  A stack entry is a prefix: its worlds,
        # the rows of all but its last world, that world and its length.
        rows = f.union()
        stack = [(1 << x, 0, x, 1) for x in range(f.n)]
        while stack:
            used, shadow, last, length = stack.pop()
            if length == params[0] + 2:
                return False
            stack += [(used | 1 << y, shadow | rows[last], y, length + 1)
                      for y in worlds_of(rows[last] & ~used & ~shadow)]
        return True
    if prop == "tense":
        return f.r1 == transpose_rows(f.r2, f.n)
    if prop in ("preorder", "equivalence", "linear", "poset", "universal"):
        if len(params) != 1 or type(params[0]) is not int or params[0] not in (1, 2):
            raise UnknownProperty(f"{prop} needs a modality parameter, the int 1 or 2")
        rows = f.relation(params[0])
        if prop == "universal":
            return all(row == f.full for row in rows)
        if not (_is_reflexive(rows, f.n) and _is_transitive(rows)):
            return False
        if prop == "preorder":
            return True
        if prop == "equivalence":
            return _is_symmetric(rows, f.n)
        if prop == "linear":
            return all(rows[a] >> b & 1 or rows[b] >> a & 1
                       for a in range(f.n) for b in range(f.n))
        # poset: antisymmetric preorder
        return all(not (rows[a] >> b & 1 and rows[b] >> a & 1)
                   for a in range(f.n) for b in range(f.n) if a != b)
    if prop == "prenoetherian":
        log.info("prenoetherian holds for every finite frame: the skeleton of a "
                 "finite frame has no infinite ascending chains")
        return True
    raise UnknownProperty(f"unknown frame property {prop!r}")


# --- restriction and generated subframes ---------------------------------

def _as_mask(Y, n: int) -> int:
    """A world-set given as a bitstring of length n, an integer mask or an
    iterable of worlds."""
    if isinstance(Y, (str, int)) or not isinstance(Y, Iterable):
        return _parse_set(Y, n, "world-set")
    worlds = list(Y)
    for w in worlds:
        if type(w) is not int or not 0 <= w < n:
            raise FormatError(f"world-set entry {w!r} is not one of the {n} worlds")
    return mask_of(worlds)


def restrict_frame(f: Frame, mask: int) -> tuple[Frame, list[int]]:
    """Frame induced on ``mask``, worlds renumbered ascending.  Also returns
    the old-world list (new index -> old index)."""
    keep = worlds_of(mask)
    return Frame(len(keep), pull_rows(f.r1, keep), pull_rows(f.r2, keep)), keep


def restrict_general(g: GeneralFrame, mask: int) -> GeneralFrame:
    sub, keep = restrict_frame(g.frame, mask)
    return GeneralFrame(sub, tuple(dict.fromkeys(pull(u, keep) for u in g.algebra)))


def restriction(g: GeneralFrame, Y) -> GeneralFrame:
    """Restrict a general frame to a world-set.  When Y is not admissible the
    result is not guaranteed to be a general frame; a warning is logged and
    closure is re-verified by construction."""
    mask = _as_mask(Y, g.n)
    if mask == 0:
        raise EmptyRestriction("cannot restrict to the empty set")
    if mask not in set(g.algebra):
        log.warning("restriction set %s is not admissible; re-verifying closure",
                    bitstring(mask, g.n))
    return restrict_general(g, mask)


def generated_subframe(g: Frame | GeneralFrame, Y):
    """Restriction to the (r1|r2)-reachability image of Y.  Returns the
    subframe (same kind as the input) and the reachable set as a mask over
    the original worlds."""
    frame = kripke_of(g)
    mask = _as_mask(Y, frame.n)
    if mask == 0:
        raise EmptyRestriction("cannot generate from the empty set")
    reach_rows = rt_closure(frame.union(), frame.n)
    reach = 0
    for b in worlds_of(mask):
        reach |= reach_rows[b]
    if isinstance(g, GeneralFrame):
        # A reachability-closed restriction is always a general frame, so no
        # admissibility warning applies; closure is still re-verified.
        return restrict_general(g, reach), reach
    sub, _ = restrict_frame(frame, reach)
    return sub, reach

"""Seeded inputs, operations and answer checks for the three workloads.

``build(name, seed)`` makes a workload's inputs; it is the only place the
seed is used, and it runs before the timed loop.  Each operation calls
the program through ``api``, a mapping from ``<module>.<function>`` to the
function (wrapped by the tracer in a traced pass), so the program only
ever sees the generated inputs.  ``Op.check`` judges an answer with code
of the benchmark's own where one is cheap (bisimulation classes, frame
conditions, p-morphism clauses, known sequence values), and ``Op.answer``
is the canonical text whose digest at the default seed is pinned in
``answers.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable

DEFAULT_SEED = 1729
BUDGET = 1 << 20          # the CLI's default valuation budget
COUNT_CAP = 1 << (1 << 18)
ANSWERS_PATH = Path(__file__).with_name("answers.json")

# preorders on n points up to isomorphism (OEIS A001930)
PREORDER_CLASSES = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718, 7: 4535}

API_NAMES = (
    "frames.load_frame", "formulas.parse", "semantics.refutes_witness",
    "enumeration.all_preorders", "enumeration.iso_distinct",
    "algebra.generated_subalgebra", "algebra.free_algebra_count",
    "morphisms.find_pmorphism", "morphisms.check_pmorphism",
    "algebra.block_system", "algebra.beta_formula",
)


def program_api() -> dict[str, Callable]:
    import importlib
    api = {}
    for name in API_NAMES:
        module, func = name.split(".")
        api[name] = getattr(importlib.import_module(f"kripkebench.{module}"), func)
    return api


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Op:
    label: str
    run: Callable[[dict], Any]
    check: Callable[[Any], str | None]     # None when the answer is right
    answer: Callable[[Any], str]
    pin: bool = False                      # answer pinned at every seed


# --- checks with the benchmark's own code ------------------------------------------

def bisimulation_classes(n, r1, r2, valuation) -> list[int]:
    """Classes of the coarsest valuation-respecting bisimulation, as masks."""
    keys = [tuple(valuation[v] >> w & 1 for v in sorted(valuation)) for w in range(n)]
    colour = _renumber(keys)
    while True:
        keys = [(colour[w],
                 frozenset(colour[x] for x in range(n) if r1[w] >> x & 1),
                 frozenset(colour[x] for x in range(n) if r2[w] >> x & 1))
                for w in range(n)]
        nxt = _renumber(keys)
        if len(set(nxt)) == len(set(colour)):
            break
        colour = nxt
    classes: dict[int, int] = {}
    for w in range(n):
        classes[colour[w]] = classes.get(colour[w], 0) | 1 << w
    return sorted(classes.values(), key=lambda m: (m & -m).bit_length())


def _renumber(keys) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def pmorphism_violation(src, tgt, f) -> str | None:
    """Forth, back and surjectivity of ``f`` between Kripke frames."""
    if f is None or len(f) != src.n or any(not 0 <= t < tgt.n for t in f):
        return "not a total map into the target"
    if set(f) != set(range(tgt.n)):
        return "not surjective"
    for rs, rt in ((src.r1, tgt.r1), (src.r2, tgt.r2)):
        for a in range(src.n):
            image = 0
            for b in range(src.n):
                if rs[a] >> b & 1:
                    image |= 1 << f[b]
            if image != rt[f[a]]:
                return f"forth or back fails at world {a}"
    return None


def _world_invariant(frame) -> tuple:
    """Isomorphism invariant: sorted per-world degrees and loops."""
    n = frame.n
    per = []
    for w in range(n):
        per.append(tuple((rows[w] >> w & 1, rows[w].bit_count(),
                          sum(rows[x] >> w & 1 for x in range(n)))
                         for rows in (frame.r1, frame.r2)))
    return tuple(sorted(per))


def _relabel(frame, perm):
    from kripkebench.frames import Frame

    def move(rows):
        out = [0] * frame.n
        for i, row in enumerate(rows):
            acc = 0
            for j in range(frame.n):
                if row >> j & 1:
                    acc |= 1 << perm[j]
            out[perm[i]] = acc
        return tuple(out)
    return Frame(frame.n, move(frame.r1), move(frame.r2))


def _move_mask(mask: int, perm) -> int:
    return sum(1 << perm[j] for j in range(len(perm)) if mask >> j & 1)


def _random_rows(rng: Random, n: int, density: float) -> tuple[int, ...]:
    return tuple(sum(1 << j for j in range(n) if rng.random() < density)
                 for _ in range(n))


def _coding(rng: Random, n: int) -> dict[int, int]:
    """A valuation giving every world its own pattern, so that each world
    is definable."""
    k = max(1, (n - 1).bit_length())
    codes = rng.sample(range(1 << k), n)
    return {v: sum(1 << w for w in range(n) if codes[w] >> v & 1) for v in range(k)}


# --- refute -------------------------------------------------------------------------

def _refute_frames(rng: Random, tiny: bool) -> list:
    from kripkebench import constructions as C
    from kripkebench.algebra import generated_subalgebra
    from kripkebench.enumeration import all_preorders
    from kripkebench.frames import Frame, GeneralFrame

    if tiny:
        fixed = [C.tack("both", 2), C.univ_chain(3)]
    else:
        fixed = [C.tack(kind, m) for kind in ("both", "1", "2") for m in (2, 3)]
        fixed += [C.match_frame(axis, kind, 2) for axis in (1, 2)
                  for kind in ("both", "1", "2")]
        fixed += [C.rect(2, 2), C.rect(2, 3), C.rect(3, 3)]
        fixed += [C.lintgrz(m) for m in (3, 4, 5)]
        fixed += [C.univ_chain(m) for m in (3, 4, 5)]
    # the seeded frames are kept out of the expensive corner (four
    # variables on four worlds, or a 16-element algebra), so that the
    # slowest queries, which set the tail, are the fixed ones at every seed
    pre = {n: all_preorders(n) for n in (1, 2, 3)}
    seeded = []
    for _ in range(1 if tiny else 4):
        a, b = rng.choice([(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
        seeded.append(C.product(rng.choice(pre[a]), rng.choice(pre[b])))
    for n in ((3,) if tiny else (3, 3, 5, 5, 6, 6)):
        seeded.append(Frame(n, _random_rows(rng, n, 0.4), _random_rows(rng, n, 0.4)))
    bases = [C.rect(2, 3), C.tack("both", 2), C.lift(C.chain(5)), C.lift(C.cluster(4))]
    for base in bases[:1] if tiny else bases:
        while True:   # an eight-element algebra: three atoms
            gens = [rng.randrange(1 << base.n) for _ in range(rng.randint(1, 2))]
            val = dict(enumerate(gens))
            if len(bisimulation_classes(base.n, base.r1, base.r2, val)) == 3:
                break
        seeded.append(GeneralFrame(base, generated_subalgebra(base, gens).elements))
    return fixed + seeded


def _refute_ops(rng: Random, tiny: bool) -> list[Op]:
    from kripkebench.checks import PROFILE_ROWS
    from kripkebench.formulas import named_formula, print_formula
    from kripkebench.frames import store_frame

    formulas = [named_formula(name, list(args)) for _, (name, args) in PROFILE_ROWS]
    if tiny:
        formulas = formulas[:6]
    queries = [(g, f) for g in _refute_frames(rng, tiny) for f in formulas]
    rng.shuffle(queries)
    ops = []
    for i, (g, f) in enumerate(queries):
        data, text = store_frame(g), print_formula(f)
        probe = Random(rng.random())
        ops.append(Op(f"q{i:04d}", _query(data, text),
                      _refute_check(g, f, probe), _refute_answer))
    return ops


def _query(data: bytes, text: str):
    from kripkebench.errors import BudgetExceeded

    def run(api):
        # handled as `kripkebench valid` handles it
        g = api["frames.load_frame"](data)
        f = api["formulas.parse"](text)
        try:
            return api["semantics.refutes_witness"](g, f, BUDGET)
        except BudgetExceeded:
            return "budget"
    return run


def _refute_answer(result) -> str:
    if result is None:
        return "valid"
    if result == "budget":
        return "budget"
    return json.dumps({"valuation": list(result.valuation), "world": result.world})


def _refute_check(g, f, probe: Random):
    def check(result):
        from kripkebench.formulas import variables
        from kripkebench.semantics import Model, eval_formula
        frame = getattr(g, "frame", g)
        cands = getattr(g, "algebra", None)
        ncand = len(cands) if cands is not None else 1 << frame.n
        over = ncand ** len(variables(f)) * max(frame.n, 1) > BUDGET
        if result == "budget" or over:
            return None if result == "budget" and over else "budget refusal differs"
        if result is None:
            # a valid verdict: spot-check a few admissible valuations
            for _ in range(3):
                val = {v: (probe.choice(cands) if cands is not None
                           else probe.randrange(1 << frame.n))
                       for v in variables(f)}
                if eval_formula(Model(g, val), f) != frame.full:
                    return "claimed valid, but a valuation falsifies it"
            return None
        ext = eval_formula(Model(g, result.as_dict()), f)
        return None if not ext >> result.world & 1 else "witness does not falsify"
    return check


# --- structure ----------------------------------------------------------------------

def _call(name: str, *args):
    return lambda api: api[name](*args)


def _expect(value, what: str):
    return lambda result: None if result == value else f"{what}: got {result!r}"


def _task(label: str, parts: list[Op], pin: bool = False) -> Op:
    """Several calls timed as one operation, so that an operation is a job
    a user would ask for and its time is steady."""
    def answer(results):
        return json.dumps([op.answer(r) for op, r in zip(parts, results)])

    def check(results):
        for op, r in zip(parts, results):
            if why := op.check(r):
                return f"{op.label}: {why}"
        return _pinned(label, answer)(results) if pin else None
    return Op(label, lambda api: [op.run(api) for op in parts], check, answer, pin)


def _count_answer(result) -> str:
    if result <= 0 or result & (result - 1):
        return f"not a power of two: {result.bit_length()} bits"
    return f"2^{result.bit_length() - 1}"


def _pinned(label: str, answer):
    """The answer must equal the one pinned at every seed."""
    def check(result):
        want = _pinned_answers().get(label)
        got = answer(result)
        return None if want is None or got == want else f"answer {got}, pinned {want}"
    return check


def _pinned_answers() -> dict:
    if not ANSWERS_PATH.exists():
        return {}
    return json.loads(ANSWERS_PATH.read_text())["structure"].get("pinned", {})


def _enumeration_ops(rng: Random, tiny: bool) -> list[Op]:
    from kripkebench import constructions as C
    from kripkebench.enumeration import random_preorder
    n_pre = 4 if tiny else 6
    ops = [Op(f"all_preorders({n_pre})", _call("enumeration.all_preorders", n_pre),
              lambda r: (None if len(r) == PREORDER_CLASSES[n_pre]
                         else f"{len(r)} classes"),
              lambda r: str(len(r)))]
    # lifted preorders: a cluster's worlds share a colour, so the canonical
    # search branches; bases are told apart by a degree invariant and each
    # appears in several relabellings
    n, want = (4, 4) if tiny else (7, 24)
    bases, seen = [], set()
    while len(bases) < want:
        f = C.lift(random_preorder(rng, n))
        inv = _world_invariant(f)
        if inv not in seen:
            seen.add(inv)
            bases.append(f)
    copies = [(b, base if c == 0 else _relabel(base, rng.sample(range(n), n)))
              for c in range(2 if tiny else 6) for b, base in enumerate(bases)]
    rng.shuffle(copies)
    frames = [f for _, f in copies]
    expected = sorted(min(i for i, (b, _) in enumerate(copies) if b == base)
                      for base in range(len(bases)))
    kept = lambda r: [next(i for i, g in enumerate(frames) if g is x) for x in r]
    ops.append(Op("iso_distinct", _call("enumeration.iso_distinct", frames),
                  lambda r: None if kept(r) == expected else "wrong representatives",
                  lambda r: json.dumps(kept(r))))
    return [_task("enumerate preorders and drop isomorphic frames", ops)]


def _closure_ops(rng: Random, tiny: bool) -> list[Op]:
    from kripkebench import constructions as C
    cases = ([(C.rect(2, 3), 6)] if tiny else
             [(C.rect(3, 4), 12), (C.lift(C.chain(11)), 11)])
    ops = []
    for frame, classes in cases:
        # The generators come from a stream fixed per frame, and the seed
        # relabels the worlds: the closure does the same work on every seed.
        label = f"closure {frame.spec.name}{frame.spec.params}"
        fixed = Random(label)
        while True:   # generators whose algebra is the full powerset
            gens = [fixed.randrange(1 << frame.n) for _ in range(2)]
            atoms = bisimulation_classes(frame.n, frame.r1, frame.r2, dict(enumerate(gens)))
            if len(atoms) == classes:
                break
        perm = rng.sample(range(frame.n), frame.n)
        frame, gens = _relabel(frame, perm), [_move_mask(g, perm) for g in gens]

        def check(alg, gens=gens, size=1 << classes):
            if len(alg.elements) != size or len(set(alg.elements)) != size:
                return f"{len(alg.elements)} elements, expected {size}"
            return None if all(g in alg.elements for g in gens) else "generator missing"
        ops.append(Op(label, _call("algebra.generated_subalgebra", frame, gens), check,
                      lambda alg: digest(json.dumps(alg.elements))))
    return [_task("close generated subalgebras", ops)]


def _count_ops(tiny: bool) -> list[Op]:
    from kripkebench import constructions as C
    from kripkebench.algebra import naive_free_algebra_count
    big = ([("tack(both,1) k=2", [C.tack("both", 1)], 2)] if tiny else
           [("tack(both,2) k=3", [C.tack("both", 2)], 3),
            ("rect(3,4) k=1", [C.rect(3, 4)], 1)])
    tacks = [] if tiny else [(f"tack({kind},3) k=1", [C.tack(kind, 3)], 1)
                             for kind in ("both", "1", "2")]
    # small enough for the naive oracle (at most 2^8 elements)
    small = [("chain(3) k=1", [C.lift(C.chain(3))], 1),
             ("singleton k=3", [C.singleton()], 3),
             ("tack(1,1)+univ_chain(2) k=1", [C.tack("1", 1), C.univ_chain(2)], 1)]
    ops = [_task("count free algebras", [
        Op(label, _call("algebra.free_algebra_count", frames, k, COUNT_CAP, BUDGET),
           lambda r: None, _count_answer) for label, frames, k in big + tacks], pin=not tiny)]
    ops.append(_task("counts checked by the naive oracle", [
        Op(label, _call("algebra.free_algebra_count", frames, k, COUNT_CAP, BUDGET),
           lambda r, frames=frames, k=k: (
               None if r == naive_free_algebra_count(frames, k) else
               f"count {r} disagrees with the naive oracle"),
           _count_answer)
        for label, frames, k in small]))
    return ops


def _pmorphism_ops(rng: Random, tiny: bool) -> list[Op]:
    from kripkebench.frames import Frame
    from kripkebench.morphisms import blow_up, tack_collapse
    finds, checks, blow_ups, no_maps = [], [], [], []
    m, targets = (2, (1, 2)) if tiny else (4, (2, 3, 4))
    for kind in ("both", "1", "2"):
        for mp in targets:
            src, tgt, f = tack_collapse(kind, m, mp)
            label = f"collapse({kind},{m},{mp})"
            finds.append(Op(f"find {label}", _call("morphisms.find_pmorphism", src, tgt, 1 << 200),
                            lambda r, s=src, t=tgt: pmorphism_violation(s, t, r),
                            lambda r: json.dumps(r)))
            checks.append(Op(f"check {label}", _call("morphisms.check_pmorphism", src, tgt, f),
                             _expect(None, "collapse map rejected"), str))
    for i in range(3 if tiny else 10):
        n = rng.randint(3, 5)
        h = Frame(n, _random_rows(rng, n, 0.4), _random_rows(rng, n, 0.4))
        g, _ = blow_up(h, tuple(rng.randint(1, 3) for _ in range(n)))
        blow_ups.append(Op(f"find blow_up #{i}", _call("morphisms.find_pmorphism", g, h, 1 << 200),
                           lambda r, s=g, t=h: pmorphism_violation(s, t, r),
                           lambda r: json.dumps(r)))
        # a reflexive first relation has only reflexive p-morphic images,
        # so a target with an irreflexive world admits no map
        loops = tuple(row | 1 << w for w, row in enumerate(g.r1))
        src = Frame(g.n, loops, g.r2)
        w = rng.randrange(n)
        r1 = [row | 1 << v for v, row in enumerate(h.r1)]
        r1[w] &= ~(1 << w)
        tgt = Frame(n, tuple(r1), h.r2)
        no_maps.append(Op(f"find no-map #{i}", _call("morphisms.find_pmorphism", src, tgt, 1 << 200),
                          _expect(None, "found a map that cannot exist"),
                          lambda r: json.dumps(r)))
    return [_task("find collapse maps", finds), _task("check collapse maps", checks),
            _task("find blow_up", blow_ups), _task("find no-map", no_maps)]


def _block_ops(rng: Random, tiny: bool) -> list[Op]:
    from kripkebench import constructions as C
    from kripkebench.checks import beta_corpus
    from kripkebench.semantics import Model
    # Sixteen codings of one frame: jobs of one size, so that the median and
    # the tail of this workload's operations fall among equal jobs rather
    # than between two jobs of different sizes.
    F = C.rect(2, 2) if tiny else C.rect(3, 4)
    models = []
    for i in range(2 if tiny else 16):
        # codings fixed per job, worlds relabelled by the seed: the same
        # work on every seed
        name = f"{F.spec.name}{F.spec.params} coding {i}"
        coding = _coding(Random(name), F.n)
        perm = rng.sample(range(F.n), F.n)
        model = Model(_relabel(F, perm), {v: _move_mask(m, perm) for v, m in coding.items()})
        models.append((name, model, range(F.n)))
    ops = [_task(f"blocks and beta {name}", _blocks_and_beta(name, model, worlds))
           for name, model, worlds in models]
    corpus: list[Op] = []
    for name, model, r in beta_corpus()[:2 if tiny else None]:
        corpus += _blocks_and_beta(name, model, [r])
    return ops + [_task("blocks and beta on beta_corpus()", corpus)]


def _blocks_and_beta(name: str, model, worlds) -> list[Op]:
    frame = model.frame
    classes = bisimulation_classes(frame.n, frame.r1, frame.r2, dict(model.valuation))
    parts = [Op(f"blocks {name}", _call("algebra.block_system", model),
                lambda bs: (None if sorted(bs.stabilized) == sorted(classes)
                            else "stable blocks are not the bisimulation classes"),
                lambda bs: json.dumps([bs.layers, bs.stabilization]))]
    return parts + [Op(f"beta {name} r={r}", _call("algebra.beta_formula", model, r),
                       _beta_check(model, r), lambda cert: str(cert.world)) for r in worlds]


def _beta_check(model, r):
    def check(cert):
        from kripkebench.semantics import eval_formula
        ext = eval_formula(model, cert.beta)
        return None if ext == 1 << r else f"beta({r}) has extension {ext:b}"
    return check


def _structure_ops(rng: Random, tiny: bool) -> list[Op]:
    ops = (_enumeration_ops(rng, tiny) + _closure_ops(rng, tiny) + _count_ops(tiny)
           + _pmorphism_ops(rng, tiny) + _block_ops(rng, tiny))
    return ops


# --- registry -----------------------------------------------------------------------

EXPECTED_STATUS = {**{f"C{i}": "pass" for i in range(1, 16)},
                   "C12": "fail", "C16": "meta-not-verifiable",
                   **{f"M{i}": "meta-not-verifiable" for i in range(1, 9)}}

# the checks a registry replay pass leaves out: they take nearly all of
# run_all's time, and one timing of a multi-second check is steady enough
REPLAY_SKIP = frozenset({"C1", "C2", "C4"})

# shipped parameters shrunk for the benchmark's own tests
TINY_REGISTRY_PARAMS = {
    "C1": {"max_n": 3}, "C2": {"max_m": 0, "sample_3": 4, "sample_4": 2},
    "C3": {"samples": 3}, "C4": {"max_n": 2}, "C8": {"max_n": 2},
    "C12": {"max_m": 2}, "C15": {"max_m": 2},
}


def registry_status_check(record) -> str | None:
    want = EXPECTED_STATUS.get(record.id)
    return None if record.status == want else f"status {record.status}, shipped {want}"


def registry_answer(record) -> str:
    from kripkebench.checks import report_json
    return report_json([record]).decode("utf-8")


@dataclass
class Workload:
    name: str
    seed: int
    tiny: bool
    ops: list[Op]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    rng = Random(f"{name}/{seed}")
    if name == "refute":
        return Workload(name, seed, tiny, _refute_ops(rng, tiny))
    if name == "structure":
        return Workload(name, seed, tiny, _structure_ops(rng, tiny))
    if name == "registry":
        # `check --all` as shipped runs at the default seed.  Other seeds
        # change the registry's own corpora, and with them peak memory:
        # whether C3 draws a 16-world product moves ru_maxrss by a third.
        return Workload(name, DEFAULT_SEED, tiny, [])
    raise ValueError(f"unknown workload {name!r}")


def pinned_digests(name: str) -> dict | None:
    """Per-operation answer digests recorded at the default seed."""
    if not ANSWERS_PATH.exists():
        return None
    return json.loads(ANSWERS_PATH.read_text())[name]

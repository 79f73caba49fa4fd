"""Command-line interface.

Subcommands: build (frame constructors), valid (validity / refutation with
witness), pmorph (check or find p-morphisms), freealg, blocks, beta, check
(the registry runner) and profile (the registry formulas on one frame).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import constructions as C
from .errors import (DEFAULT_BUDGET, BudgetExceeded, CapExceeded, FormatError,
                     KripkebenchError, size_text)
from .frames import (Frame, UniFrame, bitstring, kripke_of, load_frame,
                     load_valuation, store_frame)


def _read_frame(path: str):
    return load_frame(Path(path).read_bytes())


def _operands(args) -> tuple:
    if args.left is None or args.right is None:
        raise KripkebenchError(f"{args.family} needs --left and --right")
    return _read_frame(args.left), _read_frame(args.right)


def _product(args) -> Frame:
    left, right = _operands(args)
    for f in (left, right):
        if not isinstance(f, Frame):
            raise KripkebenchError("product factors must be Kripke frames")
    return C.product(UniFrame(left.n, left.r1), UniFrame(right.n, right.r1))


# The frame families of ``build``, each built from the parsed arguments
# (attributes kind, axis, m, a, b, left and right).
FAMILIES = {
    "tack": lambda args: C.tack(args.kind, args.m),
    "match": lambda args: C.match_frame(args.axis, args.kind, args.m),
    "rect": lambda args: C.rect(args.a, args.b),
    "lintgrz": lambda args: C.lintgrz(args.m),
    "univchain": lambda args: C.univ_chain(args.m),
    "singleton": lambda args: C.singleton(),
    "chain": lambda args: C.lift(C.chain(args.m)),
    "cluster": lambda args: C.lift(C.cluster(args.m)),
    "tackpre": lambda args: C.lift(C.tack_pre(args.m)),
    "product": _product,
    "sum": lambda args: C.ordered_sum(*map(kripke_of, _operands(args)), args.kind),
    "tensesum": lambda args: C.tense_sum(*map(kripke_of, _operands(args))),
}

# Integer options, and options with a fixed set of values (name, values), by
# destination.  argparse hands them over unchecked, so that a malformed one
# is an ``error:`` line like every other malformed input.
_INTEGER_OPTIONS = {"m": "-m", "a": "-a", "b": "-b", "budget": "--budget",
                    "k": "-k", "cap": "--cap", "max_layers": "--max-layers",
                    "r": "-r", "seed": "--seed", "axis": "--axis"}
_CHOICE_OPTIONS = {"family": ("family", tuple(FAMILIES)),
                   "kind": ("--kind", C.SUM_KINDS), "axis": ("--axis", (1, 2)),
                   "action": ("action", ("check", "find"))}


def _read_options(args) -> None:
    for dest, flag in _INTEGER_OPTIONS.items():
        text = getattr(args, dest, None)
        if isinstance(text, str):  # given on the command line; defaults are ints
            if not re.fullmatch(r"[+-]?[0-9]+", text):
                raise FormatError(f"{flag} must be an integer, got {text!r}")
            try:
                setattr(args, dest, int(text))
            except ValueError:  # more digits than the interpreter converts
                raise FormatError(f"{flag} has more than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
    for dest, (name, choices) in _CHOICE_OPTIONS.items():
        value = getattr(args, dest, None)
        if value is not None and value not in choices:
            raise FormatError(f"{name} must be one of "
                              f"{', '.join(map(str, choices))}, got {value!r}")


def _read_model(args):
    """The model of ``--frame`` valued by ``--valuation``."""
    from .semantics import Model
    g = _read_frame(args.frame)
    return Model(g, load_valuation(Path(args.valuation).read_bytes(), kripke_of(g).n))


def _emit(data: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
        if not data.endswith(b"\n"):
            sys.stdout.write("\n")


def _cmd_build(args) -> int:
    _emit(store_frame(FAMILIES[args.family](args)), args.output)
    return 0


def _cmd_valid(args) -> int:
    from .formulas import parse
    from .semantics import refutes_witness
    g = _read_frame(args.frame)
    f = parse(args.formula)
    try:
        witness = refutes_witness(g, f, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    if witness is None:
        print("valid")
        return 0
    n = kripke_of(g).n
    doc = {"valuation": {f"p{v}": bitstring(mask, n)
                         for v, mask in witness.valuation},
           "world": witness.world}
    print(json.dumps(doc))
    return 1


def _cmd_pmorph(args) -> int:
    from .morphisms import (check_pmorphism, find_pmorphism, load_worldmap,
                            store_worldmap)
    g, h = _read_frame(args.src), _read_frame(args.dst)
    if args.action == "check":
        if not args.map:
            raise KripkebenchError("pmorph check needs --map")
        with open(args.map, "rb") as fh:
            mapping = load_worldmap(fh.read())
        violation = check_pmorphism(g, h, mapping)
        if violation is None:
            print("ok")
            return 0
        print(str(violation))
        return 1
    try:
        found = find_pmorphism(g, h, budget=args.budget)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    if found is None:
        print("none")
        return 1
    _emit(store_worldmap(found), args.output)
    return 0


def _cmd_freealg(args) -> int:
    from .algebra import free_algebra_count
    paths = args.frames.split(",")
    if "" in paths:
        raise FormatError(f"--frames names an empty path in {args.frames!r}")
    frames = [kripke_of(_read_frame(p)) for p in paths]
    try:
        count = free_algebra_count(frames, args.k, cap=args.cap,
                                   budget=args.budget)
    except CapExceeded as e:
        print(f"cap exceeded: exact count {size_text(e.last_size)}",
              file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    print(count)
    return 0


def _cmd_blocks(args) -> int:
    from .algebra import block_system
    model = _read_model(args)
    system = block_system(model, args.max_layers)
    n = model.kripke.n
    doc = {
        "n": n,
        "layers": [[bitstring(b, n) for b in layer] for layer in system.layers],
        "stabilization": system.stabilization,
    }
    print(json.dumps(doc))
    return 0


def _cmd_beta(args) -> int:
    from .algebra import beta_formula
    from .formulas import print_formula
    cert = beta_formula(_read_model(args), args.r)
    doc = {
        "world": cert.world,
        "beta": print_formula(cert.beta),
        "depth": cert.depth,
        "transcript": list(cert.transcript),
    }
    print(json.dumps(doc))
    return 0


def _cmd_check(args) -> int:
    from . import checks
    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    overrides = {}
    if args.budget is not None:
        overrides = {cid: {"budget": args.budget} for cid, check
                     in checks.CHECKS.items() if "budget" in check.params}
    if args.all:
        records = checks.run_all(seed=seed, params=overrides)
    else:
        records = [checks.run_check(args.id, overrides.get(args.id), seed=seed)]
    if args.json:
        sys.stdout.write(checks.report_json(records).decode("utf-8"))
    else:
        for r in records:
            print(f"{r.id}: {r.status}")
            if args.verbose:
                for line in r.transcript:
                    print(f"  {line}")
    return 0 if all(r.status != "fail" for r in records) else 1


def _cmd_profile(args) -> int:
    from . import checks
    for row in checks.axiom_profile(_read_frame(args.frame), budget=args.budget):
        print(f"{row.label:<14} {row.status:<16} {row.formula[:90]}")
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="kripkebench")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a frame and write its JSON")
    b.add_argument("family", help=", ".join(_CHOICE_OPTIONS["family"][1]))
    b.add_argument("--kind", default="both", help="both, 1 or 2")
    b.add_argument("--axis", default=1, help="1 or 2")
    b.add_argument("-m", default=1)
    b.add_argument("-a", default=1)
    b.add_argument("-b", default=1)
    b.add_argument("--left", help="left/first operand frame JSON path")
    b.add_argument("--right", help="right/second operand frame JSON path")
    b.add_argument("-o", "--output")
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("valid", help="validity; exit 0 valid, 1 refuted, 2 budget")
    v.add_argument("--frame", required=True)
    v.add_argument("--formula", required=True)
    v.add_argument("--budget", default=DEFAULT_BUDGET)
    v.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("pmorph", help="check or find p-morphisms")
    p.add_argument("action", help="check or find")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--map")
    p.add_argument("--budget", default=1 << 20)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_pmorph)

    fa = sub.add_parser("freealg", help="count inequivalent k-formulas")
    fa.add_argument("--frames", required=True, help="comma-separated JSON paths")
    fa.add_argument("-k", required=True)
    fa.add_argument("--cap", default=1_000_000)
    fa.add_argument("--budget", default=DEFAULT_BUDGET)
    fa.set_defaults(fn=_cmd_freealg)

    bl = sub.add_parser("blocks", help="layered block system of a model")
    bl.add_argument("--frame", required=True)
    bl.add_argument("--valuation", required=True)
    bl.add_argument("--max-layers", default=None)
    bl.set_defaults(fn=_cmd_blocks)

    be = sub.add_parser("beta", help="point-definability certificate")
    be.add_argument("--frame", required=True)
    be.add_argument("--valuation", required=True)
    be.add_argument("-r", required=True)
    be.set_defaults(fn=_cmd_beta)

    ck = sub.add_parser("check", help="run registry checks")
    group = ck.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--id")
    ck.add_argument("--seed", default=None)
    ck.add_argument("--budget", default=None)
    ck.add_argument("--json", action="store_true")
    ck.add_argument("-v", "--verbose", action="store_true")
    ck.set_defaults(fn=_cmd_check)

    pr = sub.add_parser("profile", help="verdict of each registry formula on a frame")
    pr.add_argument("--frame", required=True)
    pr.add_argument("--budget", default=1 << 22)
    pr.set_defaults(fn=_cmd_profile)

    args = top.parse_args(argv)
    try:
        _read_options(args)
        return args.fn(args)
    except (KripkebenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""kripkebench benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 32 --trace 0

Each pass of a workload runs in a fresh interpreter (``worker.py``), so
the program's ``lru_cache``s start cold as they do for a command-line
user.  Passes run one after another: one caller, closed loop, no
threads or worker pools.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics, including the tracing overhead.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record`` runs one pass of each workload at the default seed and
writes the answer digests to ``answers.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("registry", "refute", "structure")
DEFAULT_SEED = 1729
SETUP_PROBES = 4          # set-up-only interpreters per run, for setup_s
MIN_REPLAYS = 8           # registry replay passes per untraced run
RUN_LIMIT_S = 170         # a run ends well inside three minutes
# seconds of worker.speed_kernel on the baseline machine when quiet; end-to-
# end times are reported at this speed (see README, "Shared machine")
KERNEL_REF_S = 0.010

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_tail_ms": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("share"):
        return "share"
    if ".ns_per_" in name:
        return "ns"
    if ".us_per_" in name:
        return "us"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default), so
    that a percentile between two operations of different sizes moves
    smoothly with their timings instead of jumping from one to the other."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def tail_percentile(ops: int) -> int:
    """The highest whole percentile that leaves at least ten operations
    beyond it.  It depends on the workload's operation count, not on the
    run length, so runs of any length report the same percentile."""
    return max(50, math.floor(100 * (1 - 10 / ops)))


def at_reference_speed(p: dict, seconds: float) -> float:
    return seconds * KERNEL_REF_S / p["kernel_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    started = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, numpy_version = [], None
    for _ in range(SETUP_PROBES):
        probe = run_worker(base + ["--setup-only"], left())
        setups.append(at_reference_speed(probe, probe["setup_s"]))
        numpy_version = probe["numpy"]

    untraced, traced = [], []
    last = 0.0
    while True:
        do_trace = trace and len(traced) < len(untraced)
        t = time.perf_counter()
        p = run_worker(base + ["--trace", str(int(do_trace)),
                               "--pass-id", str(len(untraced) + len(traced))], left())
        last = time.perf_counter() - t
        (traced if do_trace else untraced).append(p)
        setups.append(at_reference_speed(p, p["setup_s"]))
        enough = untraced and (traced or not trace)
        if enough and time.perf_counter() - started + last > seconds:
            break
        if left() < 2 * last:
            break
    replays = []
    while workload == "registry" and not trace:
        t = time.perf_counter()
        replays.append(run_worker(base + ["--replay"], left()))
        last = time.perf_counter() - t
        if len(replays) >= MIN_REPLAYS and time.perf_counter() - started + last > seconds:
            break
        if left() < 2 * last:
            break
    passes = untraced + traced + replays
    return {"untraced": untraced, "traced": traced, "replays": replays, "setups": setups,
            "numpy": numpy_version,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "failures": [f for p in passes for f in p["failures"]][:20]}


def end_to_end(m: dict) -> tuple[dict, list[str]]:
    passes = m["untraced"]
    samples: dict[str, list[float]] = {}
    for p in passes + m["replays"]:
        for label, x, near in p["timings"]:
            samples.setdefault(label, []).append(x * KERNEL_REF_S / near * 1e3)
    # one latency per operation: its median over the passes that ran it
    latencies_ms = [statistics.median(v) for v in samples.values()]
    n_samples = sum(len(v) for v in samples.values())
    q = tail_percentile(len(latencies_ms))
    values = {
        "wall_s": statistics.median(at_reference_speed(p, p["wall_s"]) for p in passes),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_tail_ms": percentile(latencies_ms, q),
    }
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    speed = statistics.median(KERNEL_REF_S / p["kernel_s"] for p in passes)
    notes = {
        "wall_s": f"median of {len(passes)} passes ({raw_wall:.3f} s as measured, "
                  f"machine at {speed:.2f} of reference speed)",
        "setup_s": f"median of {len(m['setups'])} interpreters",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "op_p50_ms": f"p50 over {len(latencies_ms)} operations ({n_samples} timings, "
                     "median per operation)",
        "op_tail_ms": f"p{q} over the same operations",
    }
    lines = [f"  {k:<14} {v:>14.6f} {END_TO_END_UNITS[k]:<3} {notes[k]}"
             for k, v in values.items()]
    return values, lines


def per_layer(m: dict) -> tuple[dict, list[str]]:
    traced = m["traced"]
    names = traced[0]["layers"].keys()
    values = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in m["untraced"]))
    lines = [f"  {k:<40} {v:>16.6f} {layer_unit(k)}" for k, v in values.items()]
    lines.append(f"  ({len(traced)} traced and {len(m['untraced'])} untraced passes; "
                 "overhead is the difference of their median wall times)")
    return values, lines


def record() -> int:
    doc = {"default_seed": DEFAULT_SEED}
    for name in WORKLOADS:
        p = run_worker(["--workload", name, "--seed", str(DEFAULT_SEED), "--record"],
                       3600)
        if p["failed"]:
            print(f"error: {name} failed its checks: {p['failures']}", file=sys.stderr)
            return 1
        entry = {"ops": p["answers"]}
        for key in ("report_bytes", "report_sha256", "pinned"):
            if key in p:
                entry[key] = p[key]
        doc[name] = entry
    (HERE / "answers.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'answers.json'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="write answers.json from the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "kripkebench" / "__init__.py").is_file():
        print(f"error: no kripkebench sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    load = os.getloadavg()
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"kripkebench benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {m['numpy']}, load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    values, lines = (per_layer if args.trace else end_to_end)(m)
    print("\n".join(lines))
    failed_share = m["failed"] / m["attempted"]
    print(f"  failed_share {failed_share:.6f} ({m['failed']} of {m['attempted']} "
          "operations wrong, missing or raised)")
    for f in m["failures"]:
        print(f"  FAILED {f}")
    unit = layer_unit if args.trace else END_TO_END_UNITS.get
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"],
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

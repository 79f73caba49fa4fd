"""One timed pass of one workload, in a fresh interpreter.

Run by ``run.py`` with the program's ``src`` directory on ``PYTHONPATH``;
prints one JSON object on its last stdout line.  ``setup_s`` runs from
the top of this file (before the program is imported) to the end of
input generation, so it covers import and generation.  Operations run
one after another (a closed loop with one caller); answers are checked
after the timed loop.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, counters, instrument_registry  # noqa: E402

from kripkebench import checks  # noqa: E402

PROBE_PERIOD_S = 0.5
PROBE_WINDOW_S = 2.0


def speed_kernel() -> float:
    """Seconds for a fixed mix of the work the program does (small-int and
    dict bytecode, a numpy gather); how long it takes tracks how fast the
    shared machine runs at the moment."""
    t = time.perf_counter()
    acc, seen = 0, {}
    for i in range(25000):
        m = (i * 2654435761) & 0xFFFF
        acc ^= m & (m >> 3)
        seen[m & 0x3FF] = (acc, i)
    a = np.arange(1 << 15, dtype=np.uint32)
    table = a ^ (a >> 1)
    for _ in range(16):
        a = table[a]
    return time.perf_counter() - t


class SpeedProbe:
    """Runs ``speed_kernel`` every PROBE_PERIOD_S seconds while a pass runs,
    from a SIGALRM handler in this same thread, so the samples cover the
    same stretch of time as the program's work.  ``spent`` is subtracted
    from the timings it interrupts."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.stamps: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        k = speed_kernel()
        self.samples.append(k)
        self.stamps.append((time.perf_counter(), k))
        self.spent += k

    def near(self, start: float, end: float) -> float:
        """Mean kernel time within PROBE_WINDOW_S of [start, end] (or the
        pass mean when no sample is that close): the speed an operation
        actually ran at."""
        ks = [k for t, k in self.stamps
              if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return statistics.mean(ks or self.samples)

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < 3:   # a short or unprobed pass
            self.samples.append(speed_kernel())


def run_registry(wl, tracer, probe):
    """``run_all`` with one operation per check id, timed at ``run_check``."""
    timings = []
    original = checks.run_check

    def timed_run_check(check_id, params=None, seed=checks.DEFAULT_SEED):
        span = tracer.start(f"checks.{check_id}") if tracer else None
        t, spent = time.perf_counter(), probe.spent
        try:
            return original(check_id, params, seed=seed)
        finally:
            end = time.perf_counter()
            timings.append((check_id, end - t - (probe.spent - spent), t, end))
            if tracer:
                tracer.end(span)

    checks.run_check = timed_run_check
    params = workloads.TINY_REGISTRY_PARAMS if wl.tiny else None
    t, spent = time.perf_counter(), probe.spent
    try:
        records = checks.run_all(wl.seed, params)
    except Exception as e:  # the records never arrive: each counts as failed
        print(f"run_all raised {type(e).__name__}: {e}", file=sys.stderr)
        records = []
    wall = time.perf_counter() - t - (probe.spent - spent)
    checks.run_check = original
    return wall, timings, records


def verify_registry(wl, records, record_mode):
    failures = [(r.id, why) for r in records
                if (why := workloads.registry_status_check(r))]
    answers = {r.id: workloads.digest(workloads.registry_answer(r)) for r in records}
    pinned = None if wl.tiny or record_mode else workloads.pinned_digests("registry")
    out = {"answers": answers} if record_mode else {}
    report = checks.report_json(records)
    if record_mode:
        out["report_bytes"] = len(report)
        out["report_sha256"] = hashlib.sha256(report).hexdigest()
    if pinned:   # the registry always runs at the default seed
        failures += [(cid, "answer differs from the pinned digest")
                     for cid, d in answers.items() if pinned["ops"].get(cid) != d]
        if len(records) == len(pinned["ops"]) and (
                len(report) != pinned["report_bytes"]
                or hashlib.sha256(report).hexdigest() != pinned["report_sha256"]):
            failures.append(("report", "bytes differ from the pinned sha256"))
    return failures, out


def replay_registry(wl, probe):
    """The registry's light checks again, each through ``run_check``, so
    that a check of a few milliseconds gets more than one timing per run."""
    timings, records = [], []
    params = workloads.TINY_REGISTRY_PARAMS if wl.tiny else {}
    for check_id in sorted(checks.CHECKS, key=lambda c: (c[0], int(c[1:]))):
        if check_id in workloads.REPLAY_SKIP:
            continue
        t, spent = time.perf_counter(), probe.spent
        try:
            records.append(checks.run_check(check_id, params.get(check_id), seed=wl.seed))
        except Exception as e:  # a check that raises is a failed answer
            print(f"{check_id} raised {type(e).__name__}: {e}", file=sys.stderr)
        end = time.perf_counter()
        timings.append((check_id, end - t - (probe.spent - spent), t, end))
    return sum(x for _, x, _, _ in timings), timings, records


def run_ops(wl, api, probe):
    results, timings = [], []
    t_start, spent_start = time.perf_counter(), probe.spent
    for op in wl.ops:
        t, spent = time.perf_counter(), probe.spent
        try:
            results.append((op.run(api), None))
        except Exception as e:  # an operation that raises is a failed answer
            results.append((None, e))
        end = time.perf_counter()
        timings.append((op.label, end - t - (probe.spent - spent), t, end))
    wall = time.perf_counter() - t_start - (probe.spent - spent_start)
    return wall, timings, results


def verify_ops(wl, results, record_mode):
    pinned = None if wl.tiny or record_mode else workloads.pinned_digests(wl.name)
    check_pins = pinned is not None and wl.seed == workloads.DEFAULT_SEED
    failures, answers, pins = [], {}, {}
    for op, (result, error) in zip(wl.ops, results):
        if error is not None:
            failures.append((op.label, f"raised {type(error).__name__}: {error}"))
            continue
        try:
            why = op.check(result)
            answer = workloads.digest(op.answer(result))
        except Exception as e:  # a malformed answer fails its check
            failures.append((op.label, f"check raised {type(e).__name__}: {e}"))
            continue
        if why:
            failures.append((op.label, why))
        elif check_pins and pinned["ops"].get(op.label) != answer:
            failures.append((op.label, "answer differs from the pinned digest"))
        answers[op.label] = answer
        if op.pin:
            pins[op.label] = op.answer(result)
    out = {"answers": answers, "pinned": pins} if record_mode else {}
    return failures, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--replay", action="store_true")
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        kernel_s = statistics.mean(speed_kernel() for _ in range(5))
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s,
                          "numpy": np.__version__}))
        return

    # a traced pass is not probed: its per-layer times are raw
    tracer = Tracer(args.pass_id) if args.trace else None
    probe = SpeedProbe(active=tracer is None)
    with probe:
        if tracer:
            root = tracer.start("bench.pass")
        if args.replay:
            wall, timings, records = replay_registry(wl, probe)
        elif wl.name == "registry":
            if tracer:
                instrument_registry(tracer)
            wall, timings, records = run_registry(wl, tracer, probe)
        else:
            api = workloads.program_api()
            if tracer:
                count = counters(tracer)
                api = {name: tracer.wrap(name, fn, count.get(name))
                       for name, fn in api.items()}
            wall, timings, results = run_ops(wl, api, probe)
        if tracer:
            tracer.end(root)
    if args.replay:
        attempted = len(timings)
        failures = [(f"{r.id} #{i}", why) for i, r in enumerate(records)
                    if (why := workloads.registry_status_check(r))]
        failures += [(f"raised #{i}", "a check raised") for i in range(attempted - len(records))]
        extra = {}
    elif wl.name == "registry":
        attempted = len(checks.CHECKS)
        failures, extra = verify_registry(wl, records, args.record)
        seen = {r.id for r in records}
        failures += [(cid, "missing record") for cid in checks.CHECKS if cid not in seen]
    else:
        attempted = len(wl.ops)
        failures, extra = verify_ops(wl, results, args.record)
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        # per timing: operation, seconds, mean kernel seconds around it
        "timings": [(label, x, probe.near(t0, t1)) for label, x, t0, t1 in timings],
        "kernel_s": statistics.mean(probe.samples),
        "probes": len(probe.samples),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": min(attempted, len({label for label, _ in failures})),
        "failures": [f"{label}: {why}" for label, why in failures[:20]],
        **extra,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

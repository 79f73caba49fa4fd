"""The benchmark's own tests (kept out of the repository's test suite):

    python3 -m pytest -q perfbench/check_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_with_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_emits_every_per_layer_metric(workload):
    result = bench(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def _run(op):
    return op.run(workloads.program_api())


def test_corrupted_witness_and_budget_answer_fail():
    from kripkebench.semantics import Witness
    wl = workloads.build("refute", 3, tiny=True)
    refuted = [(op, r) for op in wl.ops if isinstance(r := _run(op), Witness)]
    valid = [(op, r) for op in wl.ops if (r := _run(op)) is None]
    assert refuted and valid
    op, w = refuted[0]
    assert op.check(w) is None
    # move the witness world to one where the formula holds, or empty the valuation
    for world in range(16):
        bad = dataclasses.replace(w, world=world)
        if world != w.world and op.check(bad) is not None:
            break
    else:
        bad = Witness(tuple((v, 0) for v, _ in w.valuation), w.world)
    assert op.check(bad) is not None
    assert op.check("budget") is not None
    op, _ = valid[0]
    assert op.check("budget") is not None


def test_corrupted_map_and_count_fail():
    wl = workloads.build("structure", 3, tiny=True)
    ops = {op.label: op for op in wl.ops}
    finds = ops["find collapse maps"]
    maps = _run(finds)
    assert finds.check(maps) is None
    bad = list(maps[-1])
    bad[0] = (bad[0] + 1) % (max(bad) + 1)
    assert finds.check(maps[:-1] + [tuple(bad)]) is not None
    nomap = ops["find no-map"]
    answers = _run(nomap)
    assert nomap.check(answers) is None
    assert nomap.check([(0,)] + answers[1:]) is not None
    oracle = ops["counts checked by the naive oracle"]
    counts = _run(oracle)
    assert oracle.check(counts) is None
    assert oracle.check([counts[0] * 2] + counts[1:]) is not None


def test_corrupted_registry_record_fails():
    import worker
    from kripkebench.checks import run_check
    wl = workloads.build("registry", workloads.DEFAULT_SEED)
    records = [run_check(cid) for cid in ("C5", "C6", "C12")]
    assert worker.verify_registry(wl, records, False)[0] == []
    flipped = dataclasses.replace(records[2], status="pass")
    edited = dataclasses.replace(records[0], transcript=records[0].transcript[:-1])
    failures, _ = worker.verify_registry(wl, [edited, records[1], flipped], False)
    assert {label for label, _ in failures} == {"C5", "C12"}


def test_inputs_depend_only_on_the_seed():
    def answers(seed):
        wl = workloads.build("refute", seed, tiny=True)
        return [op.answer(_run(op)) for op in wl.ops]
    assert answers(11) == answers(11)
    assert answers(11) != answers(12)


def test_without_the_program_the_run_fails(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refute",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout

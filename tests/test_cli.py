import json
import os
import subprocess
import sys
from pathlib import Path

from kripkebench import constructions as C
from kripkebench.checks import axiom_profile
from kripkebench.cli import main
from kripkebench.constructions import (chain, lift, rect, singleton, tack,
                                       univ_chain)
from kripkebench.frames import load_frame, store_frame


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build(tmp_path, capsys):
    out = tmp_path / "frame.json"
    code, _, _ = run(capsys, "build", "tack", "--kind", "both", "-m", "3",
                     "-o", str(out))
    assert code == 0
    assert load_frame(out.read_bytes()) == tack("both", 3)

    code, text, _ = run(capsys, "build", "lintgrz", "-m", "3")
    assert code == 0
    doc = json.loads(text)
    assert doc["n"] == 3


def test_valid_exit_codes(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(univ_chain(2)))

    code, text, _ = run(capsys, "valid", "--frame", str(frame),
                        "--formula", "p0 -> <1>p0")
    assert code == 0 and text.strip() == "valid"

    code, text, _ = run(capsys, "valid", "--frame", str(frame),
                        "--formula", "p0 -> [1]p0")
    assert code == 1
    witness = json.loads(text)
    assert set(witness) == {"valuation", "world"}

    code, _, err = run(capsys, "valid", "--frame", str(frame),
                       "--formula", "p0 & p1 & p2", "--budget", "3")
    assert code == 2 and "budget" in err


def test_valid_on_deeply_nested_text(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(lift(chain(2))))
    code, text, _ = run(capsys, "valid", "--frame", str(frame),
                        "--formula", "~" * 1200 + "p0")
    assert code == 1
    assert json.loads(text) == {"valuation": {"p0": "00"}, "world": 0}
    code, text, err = run(capsys, "valid", "--frame", str(frame),
                          "--formula", "(" * 400 + "p0" + ")" * 400)
    assert code == 2 and text == ""
    assert err.startswith("error: nesting too deep at byte ")


def test_check_leaves_stderr_empty(tmp_path):
    # C13 restricts to sets that are not admissible on purpose; the library
    # logs each one, and an application that set up no logging sees none.
    # A fresh interpreter, because the test runner installs log handlers.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "kripkebench.cli", "check", "--id", "C13"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout
    assert done.stderr == ""


def test_light_commands_load_only_what_they_run(tmp_path):
    # building a frame and checking a map need neither numpy nor the
    # evaluator, and importing the package loads none of its modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    (tmp_path / "map.json").write_text("[0, 1]")
    heavy = {"numpy", "kripkebench.semantics", "kripkebench.algebra",
             "kripkebench.enumeration", "kripkebench.checks"}
    for argv in (("build", "chain", "-m", "2", "-o", "chain2.json"),
                 ("pmorph", "check", "--from", "chain2.json", "--to",
                  "chain2.json", "--map", "map.json")):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m",
                               "kripkebench.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in done.stderr.splitlines() if line.startswith("import time:")}
        assert "kripkebench.frames" in loaded and not heavy & loaded, argv
    done = subprocess.run([sys.executable, "-c", "import kripkebench, sys; print("
                           "sorted(m for m in sys.modules if m.startswith('kripkebench.')))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout == "[]\n", done.stderr


def test_collecting_searches_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call; C1's searches collect
    # reachable extensions without it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", "import sys; from kripkebench.checks import "
                           "run_check; print(run_check('C1').status, 'numpy.ma' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout == "pass False\n", done.stderr


def test_pmorph(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    m = tmp_path / "m.json"
    from kripkebench.constructions import lintgrz
    a.write_bytes(store_frame(lintgrz(3)))
    b.write_bytes(store_frame(lintgrz(2)))

    code, text, _ = run(capsys, "pmorph", "find", "--from", str(a),
                        "--to", str(b), "-o", str(m))
    assert code == 0
    code, text, _ = run(capsys, "pmorph", "check", "--from", str(a),
                        "--to", str(b), "--map", str(m))
    assert code == 0 and text.strip() == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text("[0, 0, 0]")
    code, text, _ = run(capsys, "pmorph", "check", "--from", str(a),
                        "--to", str(b), "--map", str(bad))
    assert code == 1 and "surjective" in text

    code, _, err = run(capsys, "pmorph", "find", "--from", str(a),
                       "--to", str(b), "--budget", "1")
    assert code == 2 and "needs 8 candidate maps, budget is 1" in err

    code, out, err = run(capsys, "pmorph", "check", "--from", str(a),
                         "--to", str(b))
    assert (code, out, err) == (2, "", "error: pmorph check needs --map\n")


def test_freealg_blocks_beta(tmp_path, capsys):
    frame = tmp_path / "f.json"
    from kripkebench.constructions import chain, lift
    frame.write_bytes(store_frame(lift(chain(2))))
    val = tmp_path / "v.json"
    val.write_text('{"p0": "01"}')

    code, text, _ = run(capsys, "freealg", "--frames", str(frame), "-k", "1")
    assert code == 0 and text.strip() == "16"

    code, text, _ = run(capsys, "blocks", "--frame", str(frame),
                        "--valuation", str(val))
    assert code == 0
    doc = json.loads(text)
    assert doc["stabilization"] == 1

    code, text, _ = run(capsys, "beta", "--frame", str(frame),
                        "--valuation", str(val), "-r", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["world"] == 1 and doc["depth"] >= 1



def test_beta_every_world_and_bad_layer_counts(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(rect(2, 2)))
    val = tmp_path / "v.json"
    val.write_text('{"p0": "1000"}')
    for r in range(4):
        code, text, _ = run(capsys, "beta", "--frame", str(frame),
                            "--valuation", str(val), "-r", str(r))
        assert code == 0 and json.loads(text)["world"] == r
    for argv in (("blocks", "--max-layers", "-1"), ("beta", "-r", "-1"),
                 ("beta", "-r", "4")):
        code, out, err = run(capsys, *argv[:1], "--frame", str(frame),
                             "--valuation", str(val), *argv[1:])
        assert code == 2 and out == "" and err.startswith("error:"), argv
    code, text, _ = run(capsys, "blocks", "--frame", str(frame),
                        "--valuation", str(val), "--max-layers", "0")
    assert code == 0 and json.loads(text)["layers"] == [["1111"]]
    for argv in (("blocks", "--max-layers", "1.5"), ("beta", "-r", "1.0")):
        code, out, err = run(capsys, *argv[:1], "--frame", str(frame),
                             "--valuation", str(val), *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: {argv[1]} must be an integer, got '{argv[2]}'\n"


def test_integer_options_share_one_error_shape(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(lift(chain(2))))
    val = tmp_path / "v.json"
    val.write_text('{"p0": "01"}')
    model = ("--frame", str(frame), "--valuation", str(val))
    commands = {
        "-m": ("build", "chain"), "-a": ("build", "rect"), "-b": ("build", "rect"),
        "-k": ("freealg", "--frames", str(frame)),
        "--cap": ("freealg", "--frames", str(frame), "-k", "1"),
        "--max-layers": ("blocks", *model), "-r": ("beta", *model),
        "--seed": ("check", "--id", "C5"),
    }
    budgets = [("valid", "--frame", str(frame), "--formula", "p0"),
               ("pmorph", "find", "--from", str(frame), "--to", str(frame)),
               ("freealg", "--frames", str(frame), "-k", "1"),
               ("check", "--id", "C5"), ("profile", "--frame", str(frame))]
    cases = [(argv, flag) for flag, argv in commands.items()] + \
        [(argv, "--budget") for argv in budgets]
    for argv, flag in cases:
        for text in ("1.0", "1.5", "x", "", "1e3", " 1", "0x10", "1_000"):
            code, out, err = run(capsys, *argv, flag, text)
            assert code == 2 and out == "", (argv, flag, text)
            assert err == f"error: {flag} must be an integer, got {text!r}\n"
    # integers still read as before, signs and leading zeros included
    code, text, _ = run(capsys, "build", "chain", "-m", "+03")
    assert code == 0 and json.loads(text)["n"] == 3
    code, text, _ = run(capsys, "freealg", "--frames", str(frame), "-k", "01",
                        "--cap", "100", "--budget", "1" + "0" * 40)
    assert code == 0 and text.strip() == "16"
    code, out, err = run(capsys, "blocks", *model, "--max-layers", "-1")
    assert code == 2 and out == "" and "max_layers" in err

def test_choice_options_share_one_error_shape(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(lift(chain(2))))
    pair = ("--from", str(frame), "--to", str(frame))
    families = ("tack, match, rect, lintgrz, univchain, singleton, chain, "
                "cluster, tackpre, product, sum, tensesum")
    cases = [
        (("build", "nosuch"), f"family must be one of {families}, got 'nosuch'"),
        (("build", "Chain"), f"family must be one of {families}, got 'Chain'"),
        (("build", "match", "-m", "2", "--axis", "1.0"),
         "--axis must be an integer, got '1.0'"),
        (("build", "match", "-m", "2", "--axis", "3"),
         "--axis must be one of 1, 2, got 3"),
        (("build", "tack", "-m", "2", "--kind", "3"),
         "--kind must be one of both, 1, 2, got '3'"),
        (("build", "sum", "--kind", "Both"),
         "--kind must be one of both, 1, 2, got 'Both'"),
        (("pmorph", "frob", *pair), "action must be one of check, find, got 'frob'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n", argv
    # good values still read as before, an axis as an integer
    code, text, _ = run(capsys, "build", "match", "--axis", "02", "--kind", "1",
                        "-m", "2")
    assert code == 0 and text == store_frame(C.match_frame(2, "1", 2)).decode() + "\n"
    identity = tmp_path / "id.json"
    identity.write_text("[0, 1]")
    code, text, _ = run(capsys, "pmorph", "check", *pair, "--map", str(identity))
    assert code == 0 and text == "ok\n"


def test_freealg_empty_paths_exit_2(tmp_path, capsys, monkeypatch):
    # an empty path would read the working directory
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_bytes(store_frame(lift(chain(2))))
    for frames in ("f.json,", ",", "", ",f.json", "f.json,,f.json"):
        code, out, err = run(capsys, "freealg", "--frames", frames, "-k", "1")
        assert (code, out) == (2, ""), frames
        assert err == f"error: --frames names an empty path in {frames!r}\n"
    code, out, _ = run(capsys, "freealg", "--frames", "f.json,f.json", "-k", "1")
    assert (code, out) == (0, "16\n")


def test_freealg_cap_and_budget_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(tack("both", 2)))
    code, text, err = run(capsys, "freealg", "--frames", str(frame), "-k", "1",
                          "--cap", "100")
    assert code == 2 and text == ""
    assert "cap exceeded: exact count 4294967296" in err
    code, text, err = run(capsys, "freealg", "--frames", str(frame), "-k", "1",
                          "--budget", "1")
    assert code == 2 and text == "" and "budget exceeded" in err
    assert "needs 32 coordinates, budget is 1" in err


def test_freealg_cap_past_decimal_conversion(tmp_path):
    # the exact count 2^32768 has 9865 decimal digits: a fresh interpreter,
    # so that a traceback would reach stderr
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(tack("both", 2)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "kripkebench.cli", "freealg",
                           "--frames", str(frame), "-k", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "cap exceeded: exact count 2^32768\n"


def test_check_single_and_exit_code(capsys):
    code, text, _ = run(capsys, "check", "--id", "C5")
    assert code == 0 and text.startswith("C5: pass")

    code, text, _ = run(capsys, "check", "--id", "C16")
    assert code == 0 and "meta-not-verifiable" in text

    # C12 carries the documented defect, so its exit code is 1
    code, text, _ = run(capsys, "check", "--id", "C12")
    assert code == 1 and text.startswith("C12: fail")


def test_check_budget_reaches_every_budgeted_check(capsys):
    # every check with a budget parameter takes --budget, C6, C9, C10 and C15 too
    for cid in ("C5", "C6", "C9", "C10", "C15"):
        code, out, err = run(capsys, "check", "--id", cid, "--budget", "1")
        assert code == 2 and out == "" and err.startswith("error:"), cid
    _, _, err = run(capsys, "check", "--id", "C6", "--budget", "1")
    assert "needs 32 world pairs, budget is 1" in err


def test_check_budget_refusals_keep_the_loop_order(capsys):
    # a check refuses the first (frame, formula) pair of its loop that is
    # over the budget, whatever order its searches run in
    for budget, needed in ((1000, {"C1": 1536, "C2": 1536, "C4": 1024}),
                           (100000, {"C1": 262144, "C2": 262144, "C4": 2359296})):
        for cid, cells in needed.items():
            code, out, err = run(capsys, "check", "--id", cid, "--budget", str(budget))
            assert (code, out) == (2, ""), cid
            assert err == f"error: enumeration needs {cells} cells (valuations " \
                f"times worlds), budget is {budget}\n", cid


def test_check_json_shape(capsys):
    code, text, _ = run(capsys, "check", "--id", "C5", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc[0]["id"] == "C5" and doc[0]["status"] == "pass"


def test_valid_on_general_frame(tmp_path, capsys):
    # the trivial algebra admits only constant valuations, so the box axiom
    # becomes valid even though the Kripke frame refutes it
    frame = tmp_path / "g.json"
    frame.write_text('{"n":2,"r1":["11","01"],"r2":["10","01"],'
                     '"algebra":["00","11"]}')
    code, text, _ = run(capsys, "valid", "--frame", str(frame),
                        "--formula", "p0 -> [1]p0")
    assert code == 0 and text.strip() == "valid"


def test_cli_error_handling(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    code, _, err = run(capsys, "valid", "--frame", str(missing),
                       "--formula", "p0")
    assert code == 2 and "error" in err


def test_build_families_match_constructors(capsys):
    from kripkebench.cli import FAMILIES
    expected = {
        "tack": C.tack("1", 2), "match": C.match_frame(2, "1", 2),
        "rect": C.rect(2, 3), "lintgrz": C.lintgrz(2),
        "univchain": C.univ_chain(2), "singleton": C.singleton(),
        "chain": C.lift(C.chain(2)), "cluster": C.lift(C.cluster(2)),
        "tackpre": C.lift(C.tack_pre(2)),
    }
    assert set(expected) | {"product", "sum", "tensesum"} == set(FAMILIES)
    for name, frame in expected.items():
        code, text, _ = run(capsys, "build", name, "--kind", "1", "--axis",
                            "2", "-m", "2", "-a", "2", "-b", "3")
        assert code == 0
        assert text == store_frame(frame).decode("utf-8") + "\n"


def test_build_operands_required(capsys):
    code, _, err = run(capsys, "build", "sum", "--left", "x.json")
    assert code == 2 and err.startswith("error:")


def test_missing_files_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(univ_chain(2)))
    missing = str(tmp_path / "absent.json")
    for argv in (("valid", "--frame", missing, "--formula", "p0"),
                 ("blocks", "--frame", str(frame), "--valuation", missing),
                 ("beta", "--frame", str(frame), "--valuation", missing,
                  "-r", "1")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv


def test_bad_valuations_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(univ_chain(2)))
    val = tmp_path / "v.json"
    for text in ('{"p0": "1"}', '{"p0": "101"}', '{"pX": "10"}', '{"p0": ',
                 '{"p0": "10", "p00": "01"}', '{"p0": "10", "p0": "01"}'):
        val.write_text(text)
        for argv in (("blocks",), ("beta", "-r", "0")):
            code, out, err = run(capsys, *argv, "--frame", str(frame),
                                 "--valuation", str(val))
            assert code == 2 and out == "" and err.startswith("error:"), (text, argv)


def test_inputs_past_the_interpreters_limits_exit_2(tmp_path, capsys):
    # a 5000-digit variable index, option and valuation key (int() converts
    # at most 4300 digits) and a frame nested 1000 deep (the JSON decoder
    # recurses) are malformed input, not a crash or the exit 1 of "refuted"
    digits, limit = "1" * 5000, sys.get_int_max_str_digits()
    frame, deep, val = tmp_path / "f.json", tmp_path / "deep.json", tmp_path / "v.json"
    frame.write_bytes(store_frame(univ_chain(2)))
    deep.write_text("[" * 1000 + "]" * 1000)
    val.write_text(f'{{"p{digits}": "10"}}')
    for argv, message in (
            (("valid", "--frame", str(frame), "--formula", "p" + digits),
             f"variable index of more than {limit} digits at byte 0"),
            (("build", "chain", "-m", digits), f"-m has more than {limit} digits"),
            (("build", "chain", "-m", "-" + digits), f"-m has more than {limit} digits"),
            (("blocks", "--frame", str(frame), "--valuation", str(val)),
             f"valuation key p11111111111... has more than {limit} digits"),
            (("valid", "--frame", str(deep), "--formula", "p0"),
             "invalid JSON: nested too deep")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}"), argv
        assert err.count("\n") == 1


def test_repeated_frame_keys_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_text('{"n": 2, "r1": ["11", "01"], "r2": ["11", "11"], "r2": ["10", "01"]}')
    val = tmp_path / "v.json"
    val.write_text('{"p0": "10"}')
    code, out, err = run(capsys, "blocks", "--frame", str(frame), "--valuation", str(val))
    assert (code, out, err) == (2, "", "error: invalid JSON: repeated key 'r2'\n")


def test_profile_prints_each_row(tmp_path, capsys):
    frame = tmp_path / "f.json"
    for f in (tack("1", 2), singleton()):
        frame.write_bytes(store_frame(f))
        code, out, err = run(capsys, "profile", "--frame", str(frame))
        assert (code, err) == (0, "")
        assert out == "".join(f"{r.label:<14} {r.status:<16} {r.formula[:90]}\n"
                              for r in axiom_profile(f))


def test_profile_budget_marks_rows(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(rect(3, 3)))
    code, out, _ = run(capsys, "profile", "--frame", str(frame), "--budget", "64")
    rows = [line.split() for line in out.splitlines()]
    assert code == 0 and len(rows) == len(axiom_profile(singleton()))
    assert all(row[1] == "budget-exceeded" for row in rows if "presym" in row[0])


def test_profile_bad_frames_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    for text in ('{"n": 2, "r1": ["1"], "r2": ["11", "11"]}', '{"n": 2',
                 '{"n": 1, "n": 1, "r1": ["1"], "r2": ["1"]}', "[]",
                 '{"n": 2, "r1": ["11", "01"], "r2": ["10", "01"], "algebra": ["00"]}'):
        frame.write_text(text)
        code, out, err = run(capsys, "profile", "--frame", str(frame))
        assert code == 2 and out == "" and err.startswith("error:"), text
        assert err.count("\n") == 1, text
    code, out, err = run(capsys, "profile", "--frame", str(tmp_path / "absent.json"))
    assert code == 2 and out == "" and err.startswith("error:")


def test_bad_world_maps_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    frame.write_bytes(store_frame(univ_chain(2)))
    bad = tmp_path / "m.json"
    for data in (b"[0, 1]\xff", b"[true, false]"):
        bad.write_bytes(data)
        code, out, err = run(capsys, "pmorph", "check", "--from", str(frame),
                             "--to", str(frame), "--map", str(bad))
        assert code == 2 and out == "" and err.startswith("error:"), data


def test_bad_frame_entries_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    for field, value in (("r1", [[1], "01"]), ("r1", [None, "01"]),
                         ("algebra", [[1], "00", "10", "01", "11"]),
                         ("algebra", [None, "00", "10", "01", "11"])):
        doc = {"n": 2, "r1": ["11", "01"], "r2": ["11", "11"], field: value}
        frame.write_text(json.dumps(doc))
        code, out, err = run(capsys, "valid", "--frame", str(frame),
                             "--formula", "p0")
        assert code == 2 and out == "" and err.startswith("error:"), doc


def test_bad_world_counts_exit_2(tmp_path, capsys):
    frame = tmp_path / "f.json"
    for n, rows in ((2.9, ["11", "01"]), (True, ["1"]), ("2", ["11", "01"])):
        frame.write_text(json.dumps({"n": n, "r1": rows, "r2": rows}))
        code, out, err = run(capsys, "valid", "--frame", str(frame),
                             "--formula", "p0")
        assert code == 2 and out == "" and err.startswith("error:"), n

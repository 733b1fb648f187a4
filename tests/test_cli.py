import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bellopt.cli import main
from bellopt.infometrics import InfoReport
from bellopt.optimizer import RestartRecord
from bellopt.transfer import CircuitMatrix
from bellopt.unitary import (
    CircuitParams,
    haar_random_unitary,
    params_to_matrix,
    read_matrix_file,
    sample_conditioned_unitary,
    write_matrix_file,
)


def run_cli(argv):
    return main([str(a) for a in argv])


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "preset"])
def test_import_pins_blas_threads_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({var: preset for var in BLAS_VARS if preset})
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    script = f"import os, bellopt; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [preset or "1"] * len(BLAS_VARS)


def test_sample_then_check_conditioned(tmp_path, capsys):
    path = tmp_path / "cond.json"
    assert run_cli(["sample", "--na", 6, "--seed", 3, "--kind", "conditioned", "--out", path]) == 0
    assert run_cli(["check", "--matrix", path, "--na", 6]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "ambiguous: 0" in out


def test_sample_then_check_haar_fails(tmp_path, capsys):
    path = tmp_path / "haar.json"
    assert run_cli(["sample", "--na", 6, "--seed", 3, "--kind", "haar", "--out", path]) == 0
    assert run_cli(["check", "--matrix", path, "--na", 6]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "failing columns" in out


def test_evaluate_identity(tmp_path, capsys):
    path = tmp_path / "ident.json"
    write_matrix_file(path, CircuitMatrix(np.eye(4)))
    assert run_cli(["evaluate", "--matrix", path, "--na", 0]) == 0
    out = capsys.readouterr().out
    assert "h_mutual = 1.000000" in out
    assert "h_x = 2.000000" in out


def test_evaluate_rejects_super_unitary(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_matrix_file(path, CircuitMatrix(1.5 * np.eye(4)))
    assert run_cli(["evaluate", "--matrix", path, "--na", 0]) == 1
    assert "sub-unitary" in capsys.readouterr().err


def _nan_matrix_file(path):
    write_matrix_file(path, CircuitMatrix(np.eye(4)))
    doc = json.loads(path.read_text())
    doc["entries"][5] = [float("nan"), 0.0]
    path.write_text(json.dumps(doc))  # json writes the bare token NaN
    return path


@pytest.mark.parametrize("command", ["evaluate", "check"])
def test_nan_entry_is_a_one_line_error(tmp_path, capsys, command):
    path = _nan_matrix_file(tmp_path / "nan.json")
    assert run_cli([command, "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "entry 5" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _boolean_matrix_file(path, where):
    if where == "m":
        # A 1x1 file, so "m": true would otherwise read as m = 1.
        path.write_text(json.dumps({"m": True, "entries": [[1, 0]]}))
    else:
        write_matrix_file(path, CircuitMatrix(np.eye(4)))
        doc = json.loads(path.read_text())
        doc["entries"][0] = [True, False]
        path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["evaluate", "check"])
@pytest.mark.parametrize(
    ("where", "named"), [("m", "field 'm'"), ("entries", "entry 0")], ids=["m", "entries"]
)
def test_boolean_is_a_one_line_error(tmp_path, capsys, command, where, named):
    path = _boolean_matrix_file(tmp_path / "bool.json", where)
    assert run_cli([command, "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _big_integer_matrix_file(path, digits):
    write_matrix_file(path, CircuitMatrix(np.eye(4)))
    text = path.read_text().replace("[1, 0]", "[1" + "0" * digits + ", 0]", 1)
    path.write_text(text)
    return path


@pytest.mark.parametrize("command", ["evaluate", "check"])
def test_integer_too_large_for_a_float_is_a_one_line_error(tmp_path, capsys, command):
    path = _big_integer_matrix_file(tmp_path / "big.json", 400)
    assert run_cli([command, "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "entry 0 is too large" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["evaluate", "check"])
def test_non_utf8_file_is_a_one_line_error(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"m": 1, "entries": [[1, 0]]}'.encode("utf-16-le"))
    assert run_cli([command, "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "UTF-8" in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_integer_past_the_digit_limit_is_a_one_line_error(tmp_path, capsys):
    path = _big_integer_matrix_file(tmp_path / "huge.json", 5000)
    assert run_cli(["evaluate", "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "too many digits" in captured.err
    assert captured.err.count("\n") == 1


def test_check_rejects_super_unitary(tmp_path, capsys):
    path = tmp_path / "double.json"
    write_matrix_file(path, CircuitMatrix(2 * np.eye(4)))
    assert run_cli(["check", "--matrix", path, "--na", 0]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "sub-unitary" in captured.err
    assert captured.err.count("\n") == 1
    assert "mass=" not in captured.out


def test_evaluate_rejects_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "m6.json"
    write_matrix_file(path, haar_random_unitary(6, 1))
    assert run_cli(["evaluate", "--matrix", path, "--na", 0]) == 1
    assert "needs 4" in capsys.readouterr().err


def test_evaluate_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 2,\n "entries": [[1, 0],\n')
    assert run_cli(["evaluate", "--matrix", path, "--na", 0]) == 1
    assert "line" in capsys.readouterr().err


def test_evaluate_writes_outcome_table(tmp_path):
    matrix_path = tmp_path / "u.json"
    table_path = tmp_path / "table.json"
    write_matrix_file(matrix_path, haar_random_unitary(6, 21))
    assert run_cli([
        "evaluate", "--matrix", matrix_path, "--na", 2, "--table", table_path,
    ]) == 0
    doc = json.loads(table_path.read_text())
    assert doc["manifest"]["command"] == "evaluate"
    p = np.array([row["p"] for row in doc["outcomes"]])
    totals = p.sum(axis=0) + np.array(doc["garbage"])
    assert np.allclose(totals, 1.0, atol=1e-9)


@pytest.mark.parametrize("args", [
    *(pytest.param([command, *target, flag, value], id=f"{command}{flag}={value}")
      for command, target in (("optimize", ["--na", 0]), ("sweep", ["--na-list", "0"]))
      for flag, value in (("--restarts", 0), ("--iters", 0), ("--parallelism", -1))),
    *(pytest.param(["sweep", "--na-list", text], id=f"sweep--na-list={text}")
      for text in (",", "0,-1", "x")),
])
def test_out_of_range_run_value_is_a_one_line_error(tmp_path, capsys, args):
    # Argparse parses these; the range checks are the library's, so exit 1, not usage.
    assert run_cli([*args, "--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_check_tol_is_a_one_line_error(tmp_path, capsys, tol):
    path = tmp_path / "cond.json"
    write_matrix_file(path, sample_conditioned_unitary(4, 1))
    assert run_cli(["check", "--matrix", path, "--na", 4, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "tol" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(("command", "args"), [
    ("optimize", ["--na", 0, "--restarts", 1, "--parallelism", 1]),
    ("sweep", ["--na-list", "0", "--restarts", 1, "--parallelism", 1]),
    ("conditions", ["--na", 4, "--trials", 1]),
    ("sample", ["--na", 4]),
], ids=["optimize", "sweep", "conditions", "sample"])
def test_negative_seed_is_a_one_line_error(tmp_path, capsys, command, args):
    assert run_cli([command, *args, "--seed", -3, "--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "seed" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["evaluate", "check", "sample"])
def test_negative_na_is_a_one_line_error(tmp_path, capsys, command):
    # A 3x3 file matches na = -1, so only the na check can stop the run.
    path = tmp_path / "m3.json"
    write_matrix_file(path, haar_random_unitary(3, 1))
    args = ["--out", tmp_path / "out.json", "--kind", "haar"] if command == "sample" else [
        "--matrix", path]
    assert run_cli([command, "--na", -1, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: na must be >= 0, got -1\n"
    assert captured.out == ""
    assert not (tmp_path / "out.json").exists()


def test_optimize_writes_result_and_prints_value(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run_cli([
        "optimize", "--na", 0, "--restarts", 4, "--seed", 7,
        "--iters", 300, "--parallelism", 1, "--out", out,
    ])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) >= 1.499
    doc = json.loads(out.read_text())
    assert doc["manifest"]["command"] == "optimize"
    assert doc["manifest"]["rng"] == "numpy-pcg64"
    assert doc["best"]["h_mutual"] >= 1.499
    assert len(doc["per_restart"]) == 4
    assert doc["best"]["matrix"]["m"] == 4
    # stored matrix re-evaluates to the stored report value
    entries = np.array([complex(re, im) for re, im in doc["best"]["matrix"]["entries"]])
    matrix_path = tmp_path / "best.json"
    write_matrix_file(matrix_path, CircuitMatrix(entries.reshape(4, 4)))
    assert run_cli(["evaluate", "--matrix", matrix_path, "--na", 0]) == 0
    evaluated = capsys.readouterr().out
    assert f"h_mutual = {doc['best']['h_mutual']:.6f}" in evaluated
    # the stored generator rebuilds the stored matrix
    params = CircuitParams.from_vector(np.array(doc["best"]["params"]["h_gen"]), 4)
    assert np.array_equal(params_to_matrix(params).entries, entries.reshape(4, 4))


@pytest.mark.parametrize("keep_traces", [False, True], ids=["plain", "traces"])
def test_optimize_rows_are_the_restart_records(tmp_path, keep_traces):
    out = tmp_path / "result.json"
    flags = ["--keep-traces"] if keep_traces else []
    assert run_cli(["optimize", "--na", 0, "--restarts", 2, "--iters", 5,
                    "--parallelism", 1, "--out", out, *flags]) == 0
    doc = json.loads(out.read_text())
    names = {f.name for f in fields(RestartRecord)} | {"converged"}
    if not keep_traces:
        names.remove("objective_trace")
    for row in doc["per_restart"]:
        assert set(row) == names
        assert row["converged"] == (row["stop"] == "gradient_tol")
    assert {f.name for f in fields(InfoReport)} <= set(doc["best"])


def test_optimize_reproducible_modulo_volatile_fields(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["optimize", "--na", 0, "--restarts", 2, "--seed", 3,
            "--iters", 200, "--parallelism", 1]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0

    def strip(path):
        doc = json.loads(path.read_text())
        doc["manifest"].pop("timestamp")
        doc.pop("wall_time_s")
        doc["manifest"]["outputs"] = None
        doc["manifest"]["argv"] = [a for a in doc["manifest"]["argv"] if "r1" not in a and "r2" not in a]
        return json.dumps(doc, sort_keys=True)

    assert strip(out1) == strip(out2)


def _without_volatile_fields(path):
    """A result file's content, minus its timestamp and wall time."""
    text = path.read_text()
    if path.suffix == ".csv":
        first, rows = text.split("\n", 1)
        doc = {"manifest": json.loads(first.removeprefix("# manifest: ")), "rows": rows}
    else:
        doc = json.loads(text)
    doc["manifest"].pop("timestamp")
    doc.pop("wall_time_s", None)
    return doc


@pytest.mark.parametrize("command", ["optimize", "sweep", "conditions", "evaluate"])
def test_recorded_argv_reproduces_the_file(tmp_path, capsys, command):
    matrix = tmp_path / "u.json"
    write_matrix_file(matrix, haar_random_unitary(6, 21))
    args, names = {
        "optimize": (["--na", 0, "--restarts", 2, "--seed", 3, "--iters", 50,
                      "--parallelism", 1, "--keep-traces", "--out", tmp_path / "r.json"],
                     ["r.json"]),
        "sweep": (["--na-list", "0,2", "--restarts", 2, "--seed", 5, "--iters", 20,
                   "--parallelism", 1, "--out", tmp_path / "s.csv"], ["s.csv"]),
        "conditions": (["--na", 4, "--trials", 2, "--seed", 1, "--out", tmp_path / "c"],
                       ["c.csv", "c.json"]),
        "evaluate": (["--matrix", matrix, "--na", 2, "--table", tmp_path / "t.json"],
                     ["t.json"]),
    }[command]
    assert run_cli([command, *args]) == 0
    paths = [tmp_path / name for name in names]
    first = [_without_volatile_fields(path) for path in paths]
    assert main(first[0]["manifest"]["argv"]) == 0
    assert [_without_volatile_fields(path) for path in paths] == first


def test_parallelism_zero_reads_affinity_mask(tmp_path, monkeypatch):
    def parallelism_recorded(name):
        out = tmp_path / name
        assert run_cli([
            "optimize", "--na", 0, "--restarts", 1, "--iters", 2,
            "--parallelism", 0, "--out", out,
        ]) == 0
        return json.loads(out.read_text())["manifest"]["config"]["parallelism"]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert parallelism_recorded("mask.json") == 3
    # Platforms without an affinity mask fall back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallelism_recorded("count.json") == 64


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "sweep", "--na-list", "0", "--restarts", 2, "--seed", 5,
        "--iters", 200, "--parallelism", 1, "--out", out,
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "na,h_mutual"
    na, h = lines[2].split(",")
    assert na == "0"
    assert float(h) > 1.0


def test_conditions_writes_csv_and_summary(tmp_path):
    base = tmp_path / "cmp"
    code = run_cli(["conditions", "--na", 4, "--trials", 2, "--seed", 1, "--out", base])
    assert code == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[1] == "population,trial,h_mutual,bunched_mass"
    assert len(lines) == 2 + 4  # manifest + header + 2 trials x 2 populations
    doc = json.loads((tmp_path / "cmp.json").read_text())
    assert doc["summary"]["conditioned"]["bunched_mass_max"] < 1e-15
    assert doc["summary"]["unconditioned"]["trials"] == 2


def test_conditions_rejects_odd_na(tmp_path, capsys):
    assert run_cli(["conditions", "--na", 3, "--trials", 1, "--out", tmp_path / "x"]) == 1
    assert "even" in capsys.readouterr().err


def test_matrix_file_17_digit_round_trip(tmp_path):
    u = haar_random_unitary(5, 99)
    path = tmp_path / "u.json"
    write_matrix_file(path, u)
    again = read_matrix_file(path)
    assert np.array_equal(u.entries, again.entries)

import json

import numpy as np
import pytest

from oracles import bland_stack_reference
from relucells import _simplex
from relucells.arrangement import enumerate_cells
from relucells.cli import build_parser, main
from relucells.model import Dataset, save_dataset_csv
from relucells.potentials import PotentialKind, weight


@pytest.fixture
def ds_csv(tmp_path, ds3):
    path = tmp_path / "data.csv"
    save_dataset_csv(ds3, path)
    return path


def test_cells_command(tmp_path, ds_csv, ds3, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["cells", str(ds_csv), "--out", str(out)]) == 0
    summary = json.loads((out / "cells_summary.json").read_text())
    assert summary["cells"] == 6
    assert summary["formula_match"] is True
    # generic data: one LP per cell
    assert summary["margin_lps"] == 6
    # the pivots the scalar loop makes on the same LPs, one at a time
    monkeypatch.setattr(_simplex, "_bland", bland_stack_reference)
    assert summary["margin_pivots"] == enumerate_cells(ds3).margin_pivots == 21
    payload = json.loads((out / "cells.json").read_text())
    assert len(payload["cells"]) == 6
    assert "cells: 6" in capsys.readouterr().out


def test_solve_command_writes_artifacts(tmp_path, ds_csv, capsys):
    out = tmp_path / "out"
    rc = main(["solve", str(ds_csv), "--out", str(out),
               "--lp-from-solution"])
    assert rc == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    assert report["stop_reason"] == "certified"
    assert report["finish_attempts"] >= 1
    diagnostics = json.loads((out / "solution.json").read_text())["diagnostics"]
    assert diagnostics["stop_reason"] == "certified"
    assert diagnostics["finish_attempts"] == report["finish_attempts"]
    assert "stop certified" in capsys.readouterr().out
    assert report["lp_support_ok"] is True
    assert report["lp_objective"] == pytest.approx(
        report["objective"], rel=1e-5
    )
    rows = (out / "radon.csv").read_text().strip().splitlines()
    assert rows[0] == "dir0,dir1,mass"
    assert len(rows) == report["atoms"] + 1


def test_label_noise_exact_measure_costs_the_objective(tmp_path, ds_csv, ds3):
    # one atom rests on the wall of point 0 (pre = +-roundoff): the weight
    # counted that point, the cell gauge did not (3.1895416 against 2.9269742)
    out = tmp_path / "out"
    rc = main(["solve", str(ds_csv), "--potential", "label-noise-exact",
               "--out", str(out), "--lp-from-solution"])
    assert rc == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["objective"] == pytest.approx(2.9269742, rel=1e-7)
    assert report["lp_objective"] == pytest.approx(report["objective"], rel=1e-6)
    rows = np.atleast_2d(np.loadtxt(out / "radon.csv", delimiter=",", skiprows=1))
    kind = PotentialKind.label_noise_exact(ds3)
    cost = float(np.sum(np.abs(rows[:, -1]) * weight(kind, rows[:, :-1])))
    assert cost == pytest.approx(report["objective"], rel=1e-6)


def test_solve_infeasible_exit_code(tmp_path):
    ds = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    path = tmp_path / "dup.csv"
    save_dataset_csv(ds, path)
    with pytest.warns(UserWarning):
        rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_train_and_analyze_roundtrip(tmp_path, ds_csv):
    out = tmp_path / "run"
    rc = main([
        "train", str(ds_csv), "--out", str(out), "--width", "32",
        "--steps", "3000", "--step-size", "0.5", "--lambda", "1e-3",
        "--seed", "3", "--record-stride", "100",
    ])
    assert rc == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["final_loss"] < 1e-2
    # 31 records of a width-32 network take part of the run, not all of it
    assert 0.0 < report["record_seconds"] <= report["seconds"]
    assert (out / "trace.csv").exists()

    out2 = tmp_path / "analysis"
    rc = main(["analyze", str(ds_csv), str(out / "network.json"),
               "--out", str(out2)])
    sparsity = json.loads((out2 / "sparsity.json").read_text())
    assert sparsity["support_count"] >= 1
    assert (rc == 0) == (sparsity["violations"] == [])
    assert (out2 / "groups.csv").exists()


def test_train_label_noise_smoke(tmp_path, ds_csv):
    out = tmp_path / "ln"
    rc = main([
        "train", str(ds_csv), "--out", str(out), "--algo", "label-noise",
        "--width", "16", "--steps", "2000", "--step-size", "0.05",
        "--eta", "0.1", "--seed", "1", "--record-stride", "100",
    ])
    assert rc == 0
    report = json.loads((out / "train_report.json").read_text())
    assert report["algo"] == "label-noise"


@pytest.mark.parametrize("flags", [["--record-stride", "0"],
                                   ["--record-stride", "-5"]])
def test_train_rejects_a_stride_below_one(tmp_path, ds_csv, capsys, flags):
    out = tmp_path / "bad"
    rc = main(["train", str(ds_csv), "--out", str(out), "--steps", "10",
               *flags])
    assert rc == 1
    assert "record_stride >= 1" in capsys.readouterr().err
    assert not (out / "train_report.json").exists()


def test_compare_command_and_threshold(tmp_path, ds_csv):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", str(ds_csv), "--out", str(out_a)]) == 0
    assert main(["solve", str(ds_csv), "--out", str(out_b)]) == 0
    out_c = tmp_path / "cmp"
    rc = main(["compare", str(ds_csv), str(out_a / "radon.csv"),
               str(out_b / "radon.csv"), "--out", str(out_c),
               "--max-delta", "1e-4"])
    assert rc == 0
    cmp = json.loads((out_c / "comparison.json").read_text())
    assert cmp["max_delta"] <= 1e-4
    # an impossible threshold turns the same comparison into a failure
    rc = main(["compare", str(ds_csv), str(out_a / "radon.csv"),
               str(out_b / "radon.csv"), "--out", str(out_c),
               "--max-delta", "-1"])
    assert rc == 4


def test_identical_runs_identical_artifacts(tmp_path, ds_csv):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["--width", "16", "--steps", "500", "--step-size", "0.3",
            "--lambda", "1e-3", "--seed", "5"]
    assert main(["train", str(ds_csv), "--out", str(out1)] + args) == 0
    assert main(["train", str(ds_csv), "--out", str(out2)] + args) == 0
    assert (out1 / "network.json").read_text() == (
        out2 / "network.json"
    ).read_text()
    assert (out1 / "trace.csv").read_text() == (out2 / "trace.csv").read_text()


def test_config_hash_identifies_the_data(tmp_path, ds3):
    def hashes(name, targets):
        path = tmp_path / name / "data.csv"
        path.parent.mkdir()
        save_dataset_csv(Dataset(ds3.points, targets), path)
        out = []
        for cmd, args, report in [
            ("solve", [], "solve_report.json"),
            ("train", ["--width", "4", "--steps", "10"], "train_report.json"),
        ]:
            run = tmp_path / name / cmd
            assert main([cmd, str(path), "--out", str(run)] + args) == 0
            out.append(json.loads((run / report).read_text())["config_hash"])
        return out

    same = hashes("a", ds3.targets)
    assert hashes("b", ds3.targets) == same
    edited = ds3.targets.copy()
    edited[1] += 0.25
    moved = hashes("c", edited)
    assert moved[0] != same[0] and moved[1] != same[1]


def test_config_file_merge_and_flag_priority(tmp_path, ds_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 16, "steps": 500,
                               "step-size": 0.3, "seed": 5}))
    out1, out2, out3 = tmp_path / "c1", tmp_path / "c2", tmp_path / "c3"
    # config-driven run matches the equivalent flag-driven run
    assert main(["train", str(ds_csv), "--out", str(out1),
                 "--config", str(cfg)]) == 0
    assert main(["train", str(ds_csv), "--out", str(out2), "--width", "16",
                 "--steps", "500", "--step-size", "0.3", "--seed", "5"]) == 0
    assert (out1 / "network.json").read_text() == (
        out2 / "network.json"
    ).read_text()
    # an explicit flag beats the file value
    assert main(["train", str(ds_csv), "--out", str(out3),
                 "--config", str(cfg), "--seed", "6"]) == 0
    assert (out3 / "network.json").read_text() != (
        out1 / "network.json"
    ).read_text()


def test_verify_quick(tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["verify", "--quick", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    payload = json.loads((out / "verify.json").read_text())
    assert all(rec["passed"] for rec in payload["checks"])
    assert payload["seed"] == 0 and payload["scale"] == "quick"
    # each value is rounded to the millisecond, so the rounded total may
    # fall short of the sum of the rounded parts by half a millisecond each
    parts = [rec["seconds"] for rec in payload["checks"]]
    assert payload["seconds"] >= sum(parts) - 0.0005 * (len(parts) + 1)


def test_verify_inject_failure(tmp_path, capsys):
    rc = main(["verify", "--quick", "--inject-failure"])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_zero_atom_measure_roundtrip(tmp_path):
    # zero targets: the minimal measure is empty, and radon.csv is a header
    ds = Dataset(np.array([[-1.0], [0.5]]), np.zeros(2))
    path = tmp_path / "zero.csv"
    save_dataset_csv(ds, path)
    run = tmp_path / "s"
    assert main(["solve", str(path), "--out", str(run)]) == 0
    radon = run / "radon.csv"
    assert radon.read_text().strip() == "dir0,dir1,mass"
    out = tmp_path / "a"
    assert main(["analyze", str(path), str(radon), "--out", str(out)]) == 0
    assert json.loads((out / "sparsity.json").read_text())["support_count"] == 0
    out = tmp_path / "c"
    assert main(["compare", str(path), str(radon), str(radon),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("command", [["verify", "--quick"],
                                     ["train", "DATA", "--steps", "10"]])
@pytest.mark.parametrize("from_config", [False, True])
def test_negative_seed_is_rejected(tmp_path, ds_csv, capsys, command,
                                   from_config):
    argv = [str(ds_csv) if a == "DATA" else a for a in command]
    argv += ["--out", str(tmp_path / "out")]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cells", "solve", "analyze", "compare"])
def test_seed_is_not_an_option(tmp_path, ds_csv, capsys, command):
    # these commands draw nothing at random
    inputs = {"analyze": ["net.json"], "compare": ["a.csv", "b.csv"]}
    argv = [command, str(ds_csv), *inputs.get(command, []), "--seed", "1",
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["train", "data.csv"], ["verify"]])
def test_seed_is_an_option_of_train_and_verify(argv):
    assert build_parser().parse_args(argv + ["--seed", "7"]).seed == 7


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0

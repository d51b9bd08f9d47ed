from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readweight import cli as cli_module
from readweight.cli import _COMMAND_FLAGS, MAX_BINS, main
from readweight.dwell_stats import DwellStats
from readweight.events import LOG_HEADER, read_log, write_log
from readweight.labeling import LABELED_HEADER, LabelingConfig, label_log
from readweight.model import MtlNetwork
from readweight.ndt import NdtParams, paper_default_params
from readweight.profiles import ProfileStore, build_profiles
from readweight.simulate import (
    RuleMixConfig,
    SimConfig,
    generate,
    generate_migration_pair,
    generate_rule_mix,
)
from readweight.training import TrainConfig

from conftest import serialize_event, serialize_labeled


def run_cli(capsys, *argv):
    """Run one command; it must print exactly one JSON line on stdout and
    nothing on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and captured.err == "", captured
    return code, json.loads(lines[0])


@pytest.fixture
def workspace(tmp_path, capsys):
    """A simulated log plus the fitted artifacts most commands need."""
    paths = {
        "log": tmp_path / "events.csv",
        "stats": tmp_path / "stats.json",
        "profiles": tmp_path / "profiles.bin",
        "labeled": tmp_path / "labeled.csv",
        "report": tmp_path / "composition.json",
        "params": tmp_path / "params.json",
    }
    code, _ = run_cli(
        capsys,
        "simulate",
        "--mode",
        "organic",
        "--out",
        str(paths["log"]),
        "--seed",
        "5",
        "--users",
        "150",
        "--items",
        "50",
    )
    assert code == 0
    assert run_cli(capsys, "fit-stats", "--log", str(paths["log"]), "--out", str(paths["stats"]))[0] == 0
    assert run_cli(capsys, "build-profiles", "--log", str(paths["log"]), "--out", str(paths["profiles"]))[0] == 0
    code, _ = run_cli(
        capsys,
        "label",
        "--log",
        str(paths["log"]),
        "--stats",
        str(paths["stats"]),
        "--profiles",
        str(paths["profiles"]),
        "--out",
        str(paths["labeled"]),
        "--report",
        str(paths["report"]),
    )
    assert code == 0
    code, _ = run_cli(capsys, "ndt-params", "--stats", str(paths["stats"]), "--out", str(paths["params"]))
    assert code == 0
    return paths


class TestHappyPath:
    def test_version(self, capsys):
        code, doc = run_cli(capsys, "--version")
        assert code == 0
        assert doc["version"] == "0.1.0"
        assert doc["formats"] == {"checkpoint": 1, "profile_store": 4}

    def test_fit_stats_summary(self, workspace, capsys, tmp_path):
        code, doc = run_cli(capsys, "fit-stats", "--log", str(workspace["log"]))
        assert code == 0
        assert doc["n"] > 0
        assert doc["x_l"] < doc["x_h"]

    def test_fit_stats_small_log(self, tmp_path, capsys):
        log = tmp_path / "three.csv"
        log.write_text(
            "u1,i1,1700000000,1,12.0\nu2,i1,1700000100,1,30.0\nu3,i2,1700000200,1,7.5\n",
            encoding="utf-8",
        )
        code, doc = run_cli(capsys, "fit-stats", "--log", str(log))
        assert code == 0
        assert doc["n"] == 3

    def test_stats_report(self, workspace, capsys, tmp_path):
        out = tmp_path / "hist.csv"
        code, doc = run_cli(
            capsys, "stats-report", "--log", str(workspace["log"]), "--out", str(out), "--bins", "10"
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_center,count"
        assert len(lines) == 11
        assert doc["n_counted"] == sum(int(l.split(",")[1]) for l in lines[1:])

    def test_label_output_format(self, workspace):
        lines = workspace["labeled"].read_text().strip().splitlines()
        assert lines[0] == "user_id,item_id,timestamp,clicked,dwell_time_s,label,source"
        assert all(len(line.split(",")) == 7 for line in lines[1:])
        report = json.loads(workspace["report"].read_text())
        assert set(report["counts"]) == {"NotClicked", "NoiseClick", "InvalidClick", "ValidRead"}

    def test_ndt_params_both_modes(self, workspace):
        doc = json.loads(workspace["params"].read_text())
        assert doc["paper_default"]["tau"] == 20.0
        assert doc["solved"]["tau"] > 0
        assert doc["paper_default"]["a"] == pytest.approx(2.319, abs=1e-3)

    def test_train_and_eval(self, workspace, capsys, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        trace = tmp_path / "trace.csv"
        code, doc = run_cli(
            capsys,
            "train",
            "--labeled",
            str(workspace["labeled"]),
            "--ndt-params",
            str(workspace["params"]),
            "--checkpoint",
            str(ckpt),
            "--trace",
            str(trace),
            "--epochs",
            "1",
            "--objective",
            "vr_ndt",
        )
        assert code == 0
        assert ckpt.exists()
        assert trace.read_text().startswith("epoch,L_v,L_w,L")
        out = tmp_path / "eval.json"
        code, doc = run_cli(
            capsys,
            "eval",
            "--labeled",
            str(workspace["labeled"]),
            "--checkpoint",
            str(ckpt),
            "--out",
            str(out),
            "--base-auc",
            "0.6",
        )
        assert code == 0
        assert 0.0 <= doc["auc"] <= 1.0
        assert doc["relaimpr"] is not None
        assert json.loads(out.read_text())["auc"] == doc["auc"]

    def test_migrate_report(self, capsys, tmp_path):
        base = tmp_path / "base.csv"
        treat = tmp_path / "treat.csv"
        code, _ = run_cli(
            capsys,
            "simulate",
            "--mode",
            "migration",
            "--out",
            str(base),
            "--treatment-out",
            str(treat),
            "--seed",
            "9",
            "--users",
            "250",
            "--items",
            "80",
        )
        assert code == 0
        cells = tmp_path / "cells.csv"
        code, doc = run_cli(
            capsys, "migrate-report", "--baseline", str(base), "--treatment", str(treat), "--out", str(cells)
        )
        assert code == 0
        assert doc["n_cells"] == 70
        assert cells.read_text().startswith("level,decile,mean_base,mean_treat,delta")

    def test_migration_mode_honours_simulator_flags(self, capsys, tmp_path):
        base = tmp_path / "base.csv"
        code, _ = run_cli(
            capsys, "simulate", "--mode", "migration", "--out", str(base),
            "--treatment-out", str(tmp_path / "treat.csv"),
            "--seed", "9", "--users", "120", "--items", "40", "--click-bias", "-0.5",
        )
        assert code == 0
        pair = generate_migration_pair(SimConfig(n_users=120, n_items=40, click_bias=-0.5, seed=9))
        assert base.read_text() == "".join(serialize_event(e) + "\n" for e in pair.baseline)

    def test_migrate_report_honours_header_and_bad_line_budget(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        assert run_cli(
            capsys, "simulate", "--mode", "organic", "--out", str(plain),
            "--seed", "4", "--users", "200", "--items", "40",
        )[0] == 0
        lines = plain.read_text().splitlines()
        log = tmp_path / "headered.csv"
        log.write_text("\n".join([LOG_HEADER, *lines[:10], "not,a,valid,line", *lines[10:]]) + "\n")
        cells = tmp_path / "cells.csv"
        argv = ["migrate-report", "--baseline", str(log), "--treatment", str(log), "--out", str(cells)]

        code, doc = run_cli(capsys, *argv, "--header", "present", "--bad-line-budget", "1")
        assert code == 0
        assert doc["n_cells"] == 70
        code, doc = run_cli(capsys, *argv, "--header", "present")
        assert (code, doc["error"]) == (2, "bad-line-budget-exceeded")
        # Read as data, the header is a second bad line.
        code, doc = run_cli(capsys, *argv, "--header", "absent", "--bad-line-budget", "1")
        assert (code, doc["error"]) == (2, "bad-line-budget-exceeded")

    def test_train_defaults_come_from_train_config(self, workspace, capsys, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, _ = run_cli(
            capsys, "train", "--labeled", str(workspace["labeled"]),
            "--ndt-params", str(workspace["params"]), "--checkpoint", str(ckpt),
        )
        assert code == 0
        _, doc = MtlNetwork.load(str(ckpt))
        default = TrainConfig()
        recorded = {
            "objective": doc["objective"],
            "neg_mode": doc["neg_mode"],
            "batch_size": doc["batch_size"],
            "learning_rate": doc["learning_rate"],
            "epochs": doc["epochs"],
            "seed": doc["train_seed"],
            "embedding_dim": doc["embedding_dim"],
            "bottom_dim": doc["bottom_dim"],
            "tower_dims": tuple(doc["tower_dims"]),
        }
        assert recorded == {name: getattr(default, name) for name in recorded}

    def test_simulate_sidecar(self, capsys, tmp_path):
        log = tmp_path / "events.csv"
        sidecar = tmp_path / "sidecar.csv"
        code, doc = run_cli(
            capsys,
            "simulate",
            "--mode",
            "organic",
            "--out",
            str(log),
            "--sidecar",
            str(sidecar),
            "--seed",
            "2",
            "--users",
            "60",
            "--items",
            "20",
        )
        assert code == 0
        lines = sidecar.read_text().strip().splitlines()
        assert lines[0] == (
            "user_id,item_id,timestamp,clicked,affinity,user_level,item_class,vr_propensity"
        )
        assert len(lines) == doc["n_events"] + 1

    def test_simulate_writes_an_empty_log(self, capsys, tmp_path):
        """No impressions at any level: a zero-byte log, which reads back empty."""
        log = tmp_path / "events.csv"
        code, doc = run_cli(capsys, "simulate", "--impressions-per-level", "0,0,0,0,0,0,0", "--out", str(log))
        assert (code, doc["n_events"], doc["n_clicks"]) == (0, 0, 0)
        assert log.read_bytes() == b""
        assert len(read_log(log)[0]) == 0

    def test_rule_mix_mode(self, capsys, tmp_path):
        out = tmp_path / "mix.csv"
        stats = tmp_path / "planted.json"
        code, doc = run_cli(
            capsys,
            "simulate",
            "--mode",
            "rule-mix",
            "--out",
            str(out),
            "--stats-out",
            str(stats),
            "--seed",
            "4",
            "--valid-reads",
            "500",
        )
        assert code == 0
        assert doc["analytic_mix"]["T1"] == pytest.approx(0.8, abs=0.01)
        assert json.loads(stats.read_text())["x_l"] == pytest.approx(15.0, rel=1e-9)


    def test_rule_mix_defaults_come_from_rule_mix_config(self, capsys, tmp_path):
        out = tmp_path / "mix.csv"
        code, _ = run_cli(
            capsys, "simulate", "--mode", "rule-mix", "--out", str(out),
            "--stats-out", str(tmp_path / "planted.json"), "--seed", "6",
        )
        assert code == 0
        library = tmp_path / "library.csv"
        write_log(library, generate_rule_mix(RuleMixConfig(seed=6)).events)
        assert out.read_bytes() == library.read_bytes()

    def test_simulate_defaults_come_from_sim_config(self, capsys, tmp_path):
        out = tmp_path / "events.csv"
        assert run_cli(capsys, "simulate", "--seed", "11", "--out", str(out))[0] == 0
        library = tmp_path / "library.csv"
        write_log(library, generate(SimConfig(seed=11))[0])
        assert out.read_bytes() == library.read_bytes()

    def test_build_profiles_defaults_come_from_build_profiles(self, workspace):
        table, _ = read_log(workspace["log"])
        assert workspace["profiles"].read_bytes() == build_profiles(table).to_bytes()

    def test_ndt_params_defaults_come_from_ndt(self, workspace):
        doc = json.loads(workspace["params"].read_text())
        stats = DwellStats.from_doc(json.loads(workspace["stats"].read_text()))
        assert doc["paper_default"] == asdict(paper_default_params())
        assert doc["solved"] == asdict(NdtParams.solve(stats.x_l, stats.x_h))

    def test_label_defaults_come_from_labeling_config(self, workspace):
        table, _ = read_log(workspace["log"])
        stats = DwellStats.from_doc(json.loads(workspace["stats"].read_text()))
        store = ProfileStore.load(str(workspace["profiles"]))
        rows = label_log(table, stats, store, LabelingConfig())
        expected = [LABELED_HEADER, *(serialize_labeled(event, label) for event, label in rows)]
        assert workspace["labeled"].read_text() == "\n".join(expected) + "\n"

    def test_migration_shift_defaults_come_from_the_generator(self, capsys, tmp_path):
        sim = SimConfig(n_users=120, n_items=40, seed=9)
        for flags, kwargs in (([], {}), (["--shift", "5", "--max-level", "2"], {"shift_s": 5.0, "max_level": 2})):
            treat = tmp_path / "treat.csv"
            code, _ = run_cli(
                capsys, "simulate", "--mode", "migration", "--out", str(tmp_path / "base.csv"),
                "--treatment-out", str(treat), "--seed", "9", "--users", "120", "--items", "40", *flags,
            )
            assert code == 0
            pair = generate_migration_pair(sim, **kwargs)
            assert treat.read_text() == "".join(serialize_event(e) + "\n" for e in pair.treatment)

    def test_noise_floor_below_default(self, workspace, capsys, tmp_path):
        """A 4 s click by a one-click user is a T2 valid read under a 3 s floor,
        and train and eval read the file that says so."""
        log = tmp_path / "light.csv"
        first_ts = workspace["log"].read_text().split("\n", 1)[0].split(",")[2]
        log.write_text(workspace["log"].read_text() + f"light_user,i000001,{first_ts},1,4.0\n")
        stats, profiles, labeled = tmp_path / "s.json", tmp_path / "p.bin", tmp_path / "l.csv"
        assert run_cli(capsys, "fit-stats", "--log", str(log), "--out", str(stats))[0] == 0
        assert json.loads(stats.read_text())["x_l"] > 4.0
        assert run_cli(capsys, "build-profiles", "--log", str(log), "--out", str(profiles))[0] == 0
        label = ["label", "--log", str(log), "--stats", str(stats), "--profiles", str(profiles), "--out", str(labeled)]
        code, doc = run_cli(capsys, *label, "--noise-floor", "3")
        assert code == 0, doc
        assert labeled.read_text().splitlines()[-1] == f"light_user,i000001,{first_ts},1,4.0,ValidRead,T2"
        ckpt = tmp_path / "model.ckpt"
        code, doc = run_cli(
            capsys, "train", "--labeled", str(labeled), "--ndt-params", str(workspace["params"]),
            "--checkpoint", str(ckpt), "--epochs", "1",
        )
        assert code == 0, doc
        code, doc = run_cli(capsys, "eval", "--labeled", str(labeled), "--checkpoint", str(ckpt))
        assert code == 0, doc
        assert run_cli(capsys, *label)[0] == 0
        assert labeled.read_text().splitlines()[-1].endswith(",NoiseClick,")


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, capsys, tmp_path):
        outs = []
        for tag in ("a", "b"):
            log = tmp_path / f"{tag}.csv"
            code, _ = run_cli(
                capsys,
                "simulate",
                "--mode",
                "organic",
                "--out",
                str(log),
                "--seed",
                "31",
                "--users",
                "100",
                "--items",
                "40",
            )
            assert code == 0
            outs.append(log.read_bytes())
        assert outs[0] == outs[1]


class TestErrors:
    def test_missing_profiles_is_validation_failure(self, workspace, capsys, tmp_path):
        code, doc = run_cli(
            capsys,
            "label",
            "--log",
            str(workspace["log"]),
            "--stats",
            str(workspace["stats"]),
            "--profiles",
            str(tmp_path / "nope.bin"),
            "--out",
            str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert doc["error"] == "missing-input:profiles"

    def test_missing_log(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "fit-stats", "--log", str(tmp_path / "nope.csv"))
        assert code == 1
        assert doc["error"] == "missing-input:log"

    def test_insufficient_data_is_runtime_failure(self, capsys, tmp_path):
        log = tmp_path / "one.csv"
        log.write_text("u1,i1,1700000000,1,12.0\n", encoding="utf-8")
        code, doc = run_cli(capsys, "fit-stats", "--log", str(log))
        assert code == 2
        assert doc["error"] == "insufficient-data"

    @pytest.mark.parametrize(
        "flags", [["--users", "3"], ["--impressions-per-level", "0,0,0,0,0,0,0"]], ids=["3-users", "no-rows"]
    )
    def test_migration_without_seven_users_is_runtime_failure(self, capsys, tmp_path, flags):
        """Fewer than 7 users in the baseline log, none at all included,
        cannot be cut into activeness levels, and neither log is written."""
        base, treat = tmp_path / "base.csv", tmp_path / "treat.csv"
        code, doc = run_cli(
            capsys, "simulate", "--mode", "migration", *flags, "--out", str(base), "--treatment-out", str(treat)
        )
        assert (code, doc) == (2, {"error": "runtime-failure", "detail": "need at least 7 users to cut 7 levels"})
        assert not base.exists() and not treat.exists()

    @pytest.mark.parametrize("mode", ["organic", "migration"])
    @pytest.mark.parametrize(
        "flags", [["--classes", "a:1:800:0"], ["--affinity-dt-coef", "400"], ["--affinity-dt-coef", "1e308"]],
        ids=["classes", "affinity-dt-coef", "affinity-dt-coef-overflows-ln-mean"],
    )
    def test_overflowing_dwell_law_is_runtime_failure(self, capsys, tmp_path, flags, mode):
        """A dwell law whose draws overflow float64 fails on the draws, with
        no warning on stderr, and writes no log its own reader would reject."""
        second = "--sidecar" if mode == "organic" else "--treatment-out"
        code, doc = run_cli(
            capsys, "simulate", "--mode", mode, *flags, "--out", str(tmp_path / "a.csv"), second, str(tmp_path / "b.csv")
        )
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "dwell time" in doc["detail"]
        assert list(tmp_path.iterdir()) == []

    def test_malformed_log_is_runtime_failure(self, capsys, tmp_path):
        log = tmp_path / "bad.csv"
        log.write_text("not,a,log\n", encoding="utf-8")
        code, doc = run_cli(capsys, "fit-stats", "--log", str(log))
        assert code == 2
        assert doc["error"] == "bad-line-budget-exceeded"

    def test_training_divergence_is_one_json_line(self, capsys, inputs, tmp_path):
        checkpoint = tmp_path / "model.ckpt"
        code, doc = run_cli(
            capsys, "train", "--labeled", inputs["labeled"], "--ndt-params", inputs["params"],
            "--checkpoint", str(checkpoint), "--learning-rate", "1e200", "--epochs", "1",
        )
        assert (code, doc["error"]) == (2, "training-diverged")
        assert "non-finite loss" in doc["detail"]
        assert not checkpoint.exists()

    @pytest.mark.parametrize(
        "flags", [["--learning-rate", "1e40"], ["--batch-size", "4096", "--learning-rate", "1e308"]],
        ids=["lr-1e40", "one-batch-lr-1e308"],
    )
    def test_non_finite_weights_are_training_divergence(self, capsys, inputs, tmp_path, flags):
        """A step so large that the loss stays finite but the weights leave
        float32's range writes no checkpoint."""
        checkpoint = tmp_path / "model.ckpt"
        code, doc = run_cli(
            capsys, "train", "--labeled", inputs["labeled"], "--ndt-params", inputs["params"],
            "--checkpoint", str(checkpoint), "--epochs", "1", *flags,
        )
        assert (code, doc["error"]) == (2, "training-diverged")
        assert "non-finite weights" in doc["detail"]
        assert not checkpoint.exists()

    def test_checkpoint_with_a_non_finite_weight_is_runtime_failure(self, inputs, capsys, tmp_path):
        # tower_w.3.b, one float32, is the checkpoint's last record.
        blob = Path(inputs["checkpoint"]).read_bytes()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(blob[:-4] + struct.pack("<f", math.nan))
        code, doc = run_cli(capsys, "eval", "--labeled", inputs["labeled"], "--checkpoint", str(ckpt))
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "tower_w.3.b" in doc["detail"] and "non-finite" in doc["detail"]

    def test_memory_error_is_runtime_failure(self, capsys, inputs, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli_module, "histogram_lnT", exhausted)
        code, doc = run_cli(capsys, "stats-report", "--log", inputs["log"], "--out", str(tmp_path / "h.csv"))
        assert (code, doc["error"]) == (2, "runtime-failure")

    def test_malformed_labeled_log_names_the_line(self, workspace, capsys, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, _ = run_cli(
            capsys, "train", "--labeled", str(workspace["labeled"]), "--ndt-params",
            str(workspace["params"]), "--checkpoint", str(ckpt), "--epochs", "1",
        )
        assert code == 0
        header, first, _, *rest = workspace["labeled"].read_text().splitlines()
        bad_rows = {
            "u1,i1,1700000000,1,9.0,Bogus,": "'Bogus' is not a valid LabelKind",
            "u1,i1,1700000000,1,9.0,NotClicked,": "label NotClicked contradicts clicked=1",
            "u1,i1,1700000000,0,0.0,InvalidClick,": "label InvalidClick contradicts clicked=0",
            "u1,i1,1700000000,1,9.0,InvalidClick,T1": "source must be present exactly when kind is ValidRead",
            "u1,i1,1700000000,1,9.0,ValidRead": "expected 5 comma-separated fields, got 4",
        }
        bad = tmp_path / "bad.csv"
        for row, message in bad_rows.items():
            bad.write_text("\n".join([header, first, row, *rest]) + "\n")
            code, doc = run_cli(capsys, "eval", "--labeled", str(bad), "--checkpoint", str(ckpt))
            assert (code, doc["error"], doc["detail"]) == (2, "malformed-log", f"line 3: {message}")
        code, doc = run_cli(
            capsys, "train", "--labeled", str(bad), "--ndt-params", str(workspace["params"]),
            "--checkpoint", str(ckpt),
        )
        assert (code, doc["detail"]) == (2, "line 3: expected 5 comma-separated fields, got 4")

    @pytest.mark.parametrize(
        "text",
        ["{}", "5", '{"mu": [1]}', '{"paper_default": {"offset": 1}}',
         # train reads only the two-mode document that ndt-params writes.
         pytest.param(json.dumps(asdict(paper_default_params())), id="bare-params")],
    )
    def test_malformed_json_inputs_are_runtime_failures(self, inputs, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        argvs = [
            ["ndt-params", "--stats", str(bad)],
            ["label", "--log", inputs["log"], "--stats", str(bad), "--profiles", inputs["profiles"],
             "--out", str(tmp_path / "labeled.csv")],
            ["train", "--labeled", inputs["labeled"], "--ndt-params", str(bad),
             "--checkpoint", str(tmp_path / "model.ckpt")],
        ]
        for argv in argvs:
            code, doc = run_cli(capsys, *argv)
            assert (code, doc["error"]) == (2, "runtime-failure"), argv
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"mu": math.nan, "sigma": 1.0, "n": 5, "x_l": math.nan, "x_h": math.inf},
            {"mu": 3.0, "sigma": 1.0, "n": 5, "x_l": 7.38905609893065, "x_h": math.inf},
            {"mu": 3.0, "sigma": -0.5, "n": 5, "x_l": 33.11545195869231, "x_h": 12.182493960703473},
        ],
        ids=["nan-mu", "inf-x_h", "negative-sigma"],
    )
    def test_unusable_stats_are_runtime_failures(self, inputs, capsys, tmp_path, fields):
        """A stats file must hold finite values and sigma >= 0: otherwise no
        click passes T1, and ``label`` writes a quietly different file."""
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(fields), encoding="utf-8")
        argvs = [
            ["ndt-params", "--stats", str(bad), "--out", str(tmp_path / "params.json")],
            ["label", "--log", inputs["log"], "--stats", str(bad), "--profiles", inputs["profiles"],
             "--out", str(tmp_path / "labeled.csv"), "--report", str(tmp_path / "report.json")],
        ]
        for argv in argvs:
            code, doc = run_cli(capsys, *argv)
            assert (code, doc["error"]) == (2, "runtime-failure"), argv
            assert "finite" in doc["detail"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["stats.json"]

    def test_params_file_without_the_mode_is_runtime_failure(self, inputs, capsys, tmp_path):
        """The flag's value is valid; the file lacks it."""
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"paper_default": asdict(paper_default_params())}), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        code, doc = run_cli(
            capsys, "train", "--labeled", inputs["labeled"], "--ndt-params", str(params),
            "--params-mode", "solved", "--checkpoint", str(ckpt),
        )
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "'solved'" in doc["detail"]
        assert not ckpt.exists()

    def test_id_past_the_store_limit_is_runtime_failure(self, capsys, tmp_path):
        log, store = tmp_path / "long.csv", tmp_path / "profiles.bin"
        log.write_text(f"{'u' * 70_001},i1,1700000000,1,12.0\nu2,i1,1700000001,1,13.0\n", encoding="utf-8")
        code, doc = run_cli(capsys, "build-profiles", "--log", str(log), "--out", str(store))
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "65,535" in doc["detail"]
        assert not store.exists()

    @pytest.mark.parametrize("drop", ["dense_dim", "slots", "user_vocab"])
    def test_checkpoint_config_without_a_key_is_runtime_failure(self, inputs, capsys, tmp_path, drop):
        data = Path(inputs["checkpoint"]).read_bytes()
        (length,) = struct.unpack_from("<I", data, 8)
        config = json.loads(data[12 : 12 + length])
        del config[drop]
        blob = json.dumps(config).encode()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + length :])
        code, doc = run_cli(capsys, "eval", "--labeled", inputs["labeled"], "--checkpoint", str(ckpt))
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert drop in doc["detail"]

    def test_vocabulary_longer_than_its_slot_is_runtime_failure(self, inputs, capsys, tmp_path):
        """A user vocabulary with one id more than its slot's cardinality
        allows fails when the checkpoint's space loads, not in the gather."""
        data = Path(inputs["checkpoint"]).read_bytes()
        (length,) = struct.unpack_from("<I", data, 8)
        config = json.loads(data[12 : 12 + length])
        config["user_vocab"].append("~" + config["user_vocab"][-1])
        blob = json.dumps(config).encode()
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + length :])
        code, doc = run_cli(capsys, "eval", "--labeled", inputs["labeled"], "--checkpoint", str(ckpt))
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "do not fit its slots" in doc["detail"]

    def test_embedding_table_shorter_than_its_slot_is_runtime_failure(self, inputs, capsys, tmp_path):
        """An embedding table one row short of its slot's cardinality fails
        when the checkpoint loads, not in the gather."""
        data = Path(inputs["checkpoint"]).read_bytes()
        name = b"emb.user_id"
        at = data.index(name) + len(name) + 4  # past the name and the rank
        rows, dim = struct.unpack_from("<2I", data, at)
        end = at + 8 + 4 * rows * dim
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(data[:at] + struct.pack("<2I", rows - 1, dim) + data[at + 8 : end - 4 * dim] + data[end:])
        code, doc = run_cli(capsys, "eval", "--labeled", inputs["labeled"], "--checkpoint", str(ckpt))
        assert (code, doc["error"]) == (2, "runtime-failure")
        assert "shapes" in doc["detail"]

    def test_missing_flag(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "simulate", "--mode", "organic", "--seed", "1")
        assert code == 1
        assert doc["error"] == "missing-flag:out"

    def test_truncated_binaries_are_runtime_failures(self, workspace, capsys, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, _ = run_cli(
            capsys, "train", "--labeled", str(workspace["labeled"]), "--ndt-params",
            str(workspace["params"]), "--checkpoint", str(ckpt), "--epochs", "1",
        )
        assert code == 0
        profiles, short_ckpt = tmp_path / "short.bin", tmp_path / "short.ckpt"
        profiles.write_bytes(workspace["profiles"].read_bytes()[:6])
        short_ckpt.write_bytes(ckpt.read_bytes()[:10])
        label = [
            "label", "--log", str(workspace["log"]), "--stats", str(workspace["stats"]),
            "--profiles", str(profiles), "--out", str(tmp_path / "out.csv"),
        ]
        evaluate = ["eval", "--labeled", str(workspace["labeled"]), "--checkpoint", str(short_ckpt)]
        for argv in (label, evaluate):
            code, doc = run_cli(capsys, *argv)
            assert (code, doc["error"]) == (2, "runtime-failure"), doc
            assert "truncated or corrupt" in doc["detail"]

    def test_extended_binaries_are_runtime_failures(self, workspace, capsys, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, _ = run_cli(
            capsys, "train", "--labeled", str(workspace["labeled"]), "--ndt-params",
            str(workspace["params"]), "--checkpoint", str(ckpt), "--epochs", "1",
        )
        assert code == 0
        profiles, long_ckpt = tmp_path / "long.bin", tmp_path / "long.ckpt"
        profiles.write_bytes(workspace["profiles"].read_bytes() + b"\x00")
        long_ckpt.write_bytes(ckpt.read_bytes() + b"garbage")
        label = [
            "label", "--log", str(workspace["log"]), "--stats", str(workspace["stats"]),
            "--profiles", str(profiles), "--out", str(tmp_path / "out.csv"),
        ]
        evaluate = ["eval", "--labeled", str(workspace["labeled"]), "--checkpoint", str(long_ckpt)]
        for argv in (label, evaluate):
            code, doc = run_cli(capsys, *argv)
            assert (code, doc["error"]) == (2, "runtime-failure"), doc
            assert "trailing bytes" in doc["detail"]

    @pytest.mark.parametrize(
        "mode, foreign",
        [
            ("organic", ["--stats-out", "stats.json"]),
            ("organic", ["--shift", "5"]),
            ("rule-mix", ["--sidecar", "sidecar.csv"]),
            ("rule-mix", ["--users", "60"]),
            ("migration", ["--sidecar", "sidecar.csv"]),
            ("migration", ["--valid-reads", "500"]),
        ],
    )
    def test_simulate_rejects_flags_of_other_modes(self, capsys, tmp_path, mode, foreign):
        own = {
            "organic": ["--users", "60", "--items", "20"],
            "rule-mix": ["--stats-out", str(tmp_path / "planted.json"), "--valid-reads", "500"],
            "migration": ["--treatment-out", str(tmp_path / "treat.csv"), "--users", "60", "--items", "20"],
        }[mode]
        out = tmp_path / "log.csv"
        argv = ["simulate", "--mode", mode, "--out", str(out), "--seed", "1", *own]
        name, value = foreign[0].removeprefix("--"), foreign[1]
        if not value.isdigit():
            value = str(tmp_path / value)
        code, doc = run_cli(capsys, *argv, foreign[0], value)
        assert (code, doc["error"]) == (1, f"invalid-flag:{name}")
        assert sorted(tmp_path.iterdir()) == []
        # The same setting as a config-file key is a shared default, not an error.
        config = tmp_path / "sim.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        assert run_cli(capsys, *argv, "--config", str(config))[0] == 0
        assert not (tmp_path / foreign[1]).exists()


class TestSimulatorGoldenBytes:
    """sha256 of small simulator outputs, pinned across versions: the log,
    sidecar, planted stats and migration pair must keep their bytes, and so
    must the profile store built from the organic log (format 4: format 3's
    bytes with the version field 4 and a CRC-32 appended) and the stats
    fitted to it.  The
    hashes come from a build on x86-64 Linux with Python 3.11 and numpy 2.4;
    a numpy whose RNG streams or SIMD float kernels differ may not match."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (
                ["--mode", "organic", "--users", "60", "--items", "20", "--seed", "3",
                 "--out", "{log}", "--sidecar", "{sidecar}"],
                {
                    "log": "84447829b7a914c6a9b4111acab661d0109c2a819b30f84082ee50c844aaa0fd",
                    "sidecar": "0c2c9aa801149f0f761190fbd056355bb3a829c8d4ab16a6247b08df1f58aa90",
                },
            ),
            (
                ["--mode", "rule-mix", "--valid-reads", "500", "--seed", "4",
                 "--out", "{log}", "--stats-out", "{stats}"],
                {
                    "log": "42ab2afe8eda5cccb614f3e80f9e01938dac9ef245c46f4a7a9691bda1da8b57",
                    "stats": "9bb0636f6ff00a6d4112be3944f65517bc24d2611871da09bdc62466d7fb9078",
                },
            ),
            (
                ["--mode", "migration", "--users", "120", "--items", "40", "--seed", "9",
                 "--out", "{log}", "--treatment-out", "{treatment}"],
                {
                    "log": "d05f1b683ddd9c6ee9a85a16dff6e96d679e708dcd18bf75c1984ae1f8bd7057",
                    "treatment": "ee3f1ef311754bb5763b95bc852ea8160dee5416ed8b1a17f065ee466ecae923",
                },
            ),
        ],
        ids=["organic", "rule-mix", "migration"],
    )
    def test_outputs_match_golden_sha256(self, capsys, tmp_path, argv, outputs):
        paths = {name: tmp_path / f"{name}.out" for name in outputs}
        code, doc = run_cli(capsys, "simulate", *(arg.format(**paths) for arg in argv))
        assert code == 0, doc
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert digests == outputs

    @pytest.mark.parametrize(
        "switch, golden",
        [
            # Default switch: all 20 items exact.
            ([], "ef4601499f0ab7cb54a6bee68acc49f9ee8a67abf1c5c8b05fdcbec54abeb29d"),
            # 16 items past a 12-record switch, 4 still exact.
            (["--switch-threshold", "12"], "35f159e2a7403c85e20d48d6a33a2a031327ccb80ea45f8824d1de6a2c38935e"),
        ],
        ids=["exact", "mixed"],
    )
    def test_profile_store_matches_golden_sha256(self, capsys, tmp_path, switch, golden):
        log, profiles = tmp_path / "log.csv", tmp_path / "profiles.bin"
        argv = ["--mode", "organic", "--users", "60", "--items", "20", "--seed", "3", "--out", str(log)]
        assert run_cli(capsys, "simulate", *argv)[0] == 0
        assert run_cli(capsys, "build-profiles", "--log", str(log), "--out", str(profiles), *switch)[0] == 0
        assert hashlib.sha256(profiles.read_bytes()).hexdigest() == golden

    def test_fit_stats_matches_golden_sha256(self, capsys, tmp_path):
        """The fit sums ln T left to right; a pairwise sum (``np.sum``)
        changes the last bits of mu and sigma, and so these bytes."""
        log, stats = tmp_path / "log.csv", tmp_path / "stats.json"
        argv = ["--mode", "organic", "--users", "60", "--items", "20", "--seed", "3", "--out", str(log)]
        assert run_cli(capsys, "simulate", *argv)[0] == 0
        assert run_cli(capsys, "fit-stats", "--log", str(log), "--out", str(stats))[0] == 0
        golden = "406faf284e572c1bf50fb04e403481b2e86b8d88d922df40a940ae9245d370bb"
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == golden


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        config = tmp_path / "pipeline.cfg"
        config.write_text("seed = 7\nusers = 120\nitems = 30\n# comment\n", encoding="utf-8")
        log1 = tmp_path / "one.csv"
        code, doc = run_cli(
            capsys, "simulate", "--config", str(config), "--mode", "organic", "--out", str(log1)
        )
        assert code == 0
        assert doc["seed"] == 7
        log2 = tmp_path / "two.csv"
        code, doc = run_cli(
            capsys,
            "simulate",
            "--config",
            str(config),
            "--mode",
            "organic",
            "--out",
            str(log2),
            "--seed",
            "8",
        )
        assert code == 0
        assert doc["seed"] == 8
        assert log1.read_bytes() != log2.read_bytes()

    def test_bad_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n", encoding="utf-8")
        code, doc = run_cli(
            capsys, "simulate", "--config", str(config), "--mode", "organic", "--out", "x.csv"
        )
        assert code == 1
        assert doc["error"] == "invalid-config"

    def test_missing_config_file(self, capsys):
        code, doc = run_cli(capsys, "fit-stats", "--config", "/nonexistent.cfg", "--log", "x")
        assert code == 1
        assert doc["error"] == "missing-input:config"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every command's input files, built once and never written again."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {
        name: str(root / name)
        for name in ("log", "stats", "profiles", "labeled", "params", "checkpoint")
    }
    steps = [
        ["simulate", "--seed", "5", "--users", "150", "--items", "50", "--out", paths["log"]],
        ["fit-stats", "--log", paths["log"], "--out", paths["stats"]],
        ["build-profiles", "--log", paths["log"], "--out", paths["profiles"]],
        ["label", "--log", paths["log"], "--stats", paths["stats"], "--profiles", paths["profiles"],
         "--out", paths["labeled"]],
        ["ndt-params", "--stats", paths["stats"], "--out", paths["params"]],
        ["train", "--labeled", paths["labeled"], "--ndt-params", paths["params"],
         "--checkpoint", paths["checkpoint"], "--epochs", "1"],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return paths


def test_trained_bits_match_golden_sha256(capsys, tmp_path, inputs):
    """sha256 of a one-epoch checkpoint and its eval.json on the 3,630-event
    log of ``inputs`` (eight steps of up to 512 rows, so the row-sparse Adam
    catch-up runs), pinned across versions: a change to the forward or
    backward pass, the optimizer or the vocabulary encoding that moves one
    bit shows here.
    The hashes come from x86-64 Linux with Python 3.11 and numpy 2.4's
    bundled OpenBLAS; a BLAS whose kernels sum in another order may not
    match."""
    ckpt, report = tmp_path / "model.ckpt", tmp_path / "eval.json"
    argv = ["--labeled", inputs["labeled"], "--ndt-params", inputs["params"], "--checkpoint", str(ckpt), "--epochs", "1"]
    assert run_cli(capsys, "train", *argv)[0] == 0
    argv = ["--labeled", inputs["labeled"], "--checkpoint", str(ckpt), "--out", str(report)]
    assert run_cli(capsys, "eval", *argv)[0] == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, report)}
    assert digests == {
        "model.ckpt": "ca9c5ad22e0a32ef2e413feed56a3ea645cf72ede3b903249772e3e8b0befee0",
        "eval.json": "05dbcfe8f73742ab01e7349f2c54f8c0e68190db8438cf94200041359a7b5752",
    }


def test_label_writes_the_same_bytes_from_yielded_pairs(capsys, tmp_path, inputs, monkeypatch):
    """``label`` takes only the labels from the (event, label) pairs that
    ``label_log`` returns, so a generator function that yields them, as a
    tracer wrapping ``label_log`` may be, writes the same files."""

    def label(out):
        out.mkdir()
        argv = ["label", "--log", inputs["log"], "--stats", inputs["stats"], "--profiles", inputs["profiles"],
                "--out", str(out / "labeled.csv"), "--report", str(out / "composition.json")]
        code, doc = run_cli(capsys, *argv)
        assert code == 0
        return {key: value for key, value in doc.items() if key not in ("out", "report")}, {
            name: (out / name).read_bytes() for name in ("labeled.csv", "composition.json")
        }

    plain = label(tmp_path / "plain")
    library = cli_module.label_log

    def yielded_pairs(*args, **kwargs):
        yield from library(*args, **kwargs)

    monkeypatch.setattr(cli_module, "label_log", yielded_pairs)
    assert label(tmp_path / "pairs") == plain
    assert plain[1]["labeled.csv"] == Path(inputs["labeled"]).read_bytes()


# A valid argv per command; outputs go under {out}.
VALID_ARGV = {
    "simulate": ["--users", "60", "--items", "20", "--out", "{out}/log.csv"],
    "fit-stats": ["--log", "{log}", "--out", "{out}/stats.json"],
    "stats-report": ["--log", "{log}", "--out", "{out}/hist.csv"],
    "build-profiles": ["--log", "{log}", "--out", "{out}/profiles.bin"],
    "label": ["--log", "{log}", "--stats", "{stats}", "--profiles", "{profiles}",
              "--out", "{out}/labeled.csv", "--report", "{out}/report.json"],
    "ndt-params": ["--stats", "{stats}", "--out", "{out}/params.json"],
    "train": ["--labeled", "{labeled}", "--ndt-params", "{params}",
              "--checkpoint", "{out}/model.ckpt", "--trace", "{out}/trace.csv", "--epochs", "1"],
    "eval": ["--labeled", "{labeled}", "--checkpoint", "{checkpoint}", "--out", "{out}/eval.json"],
    "migrate-report": ["--baseline", "{log}", "--treatment", "{log}", "--out", "{out}/cells.csv"],
}


class TestUsageErrors:
    """A usage error prints one JSON line, exits 1 and writes nothing."""

    @pytest.fixture
    def out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        return out

    def argv(self, command, inputs, out):
        return [command, *(arg.format(out=out, **inputs) for arg in VALID_ARGV[command])]

    @pytest.mark.parametrize("command", list(VALID_ARGV))
    def test_valid_argv_runs(self, capsys, inputs, out, command):
        code, doc = run_cli(capsys, *self.argv(command, inputs, out))
        assert (code, doc["command"]) == (0, command)

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("simulate", "mode", "bogus"),
            ("simulate", "classes", "a:b"),
            ("simulate", "latent-dim", "wide"),
            ("fit-stats", "header", "bogus"),
            ("fit-stats", "bad-line-budget", "1.5"),
            ("fit-stats", "bad-line-budget", "-1"),
            ("stats-report", "bins", "x"),
            ("stats-report", "bins", "0"),
            ("build-profiles", "switch-threshold", "big"),
            ("build-profiles", "switch-threshold", "-5"),
            ("build-profiles", "switch-threshold", "4294967296"),
            ("build-profiles", "eps", "tiny"),
            ("build-profiles", "eps", "0"),
            ("build-profiles", "eps", "2"),
            ("label", "light-max-clicks", "many"),
            ("label", "noise-floor", "3s"),
            ("label", "header", "bogus"),
            ("ndt-params", "precision", "fine"),
            ("train", "objective", "nope"),
            ("train", "neg-mode", "both"),
            ("train", "params-mode", "fitted"),
            ("train", "tower-dims", "64,x"),
            ("train", "epochs", "0"),
            ("train", "batch-size", "0"),
            ("label", "noise-floor", "nan"),
            ("label", "light-max-clicks", "-3"),
            ("train", "embedding-dim", "0"),
            ("train", "tower-dims", "4"),
            ("train", "tower-dims", "4,4,4"),
            ("train", "learning-rate", "nan"),
            ("simulate", "users", "0"),
            ("simulate", "span-days", "0"),
            ("simulate", "span-days", "200000000000000"),
            ("ndt-params", "precision", "-1"),
            ("stats-report", "bins", str(MAX_BINS + 1)),
            ("eval", "base-auc", "high"),
            ("eval", "base-auc", "0.5"),
            ("migrate-report", "boundaries", "1,x"),
            ("migrate-report", "boundaries", "3,2,1"),
            ("migrate-report", "boundaries", "1,1"),
            ("migrate-report", "header", "bogus"),
            ("eval", "base-auc", "1.5"),
            ("simulate", "classes", "x,y:1:3:1"),
            ("simulate", "classes", "a:0.5:3:1;a:0.5:4:1"),
        ],
    )
    def test_bad_value(self, capsys, tmp_path, inputs, out, command, name, value):
        argv = self.argv(command, inputs, out)
        if f"--{name}" in argv:
            # A flag wins over the config file, so drop the valid one.
            at = argv.index(f"--{name}")
            del argv[at : at + 2]
        code, doc = run_cli(capsys, *argv, f"--{name}", value)
        assert (code, doc["error"]) == (1, f"invalid-flag:{name}")
        assert list(out.iterdir()) == []
        # A config file's text goes through the same parser.
        config = tmp_path / "bad.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        code, doc = run_cli(capsys, *argv, "--config", str(config))
        assert (code, doc["error"]) == (1, "invalid-config")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags, name",
        [
            ("simulate", ["--activeness-mix", "1"], "activeness-mix"),
            ("simulate", ["--impressions-per-level", "5,5"], "impressions-per-level"),
            ("simulate", ["--activeness-mix", "0.5,0.5", "--impressions-per-level", "1,2,3"], "activeness-mix"),
            ("simulate", ["--mode", "rule-mix", "--stats-out", "{out}/stats.json", "--mix", "0.5,0.2,0.2"], "mix"),
            ("simulate", ["--mode", "rule-mix", "--stats-out", "{out}/stats.json", "--valid-reads", "8"], "valid-reads"),
            ("simulate", ["--mode", "migration", "--treatment-out", "{out}/b.csv", "--shift", "50"], "shift"),
            ("simulate", ["--mode", "migration", "--treatment-out", "{out}/b.csv", "--shift-scale", "2"], "shift-scale"),
            ("ndt-params", ["--precision", "2"], "precision"),
            ("ndt-params", ["--t-max", "1e-6"], "t-max"),
            ("ndt-params", ["--precision", "2", "--t-max", "1"], "precision"),
            ("simulate", ["--mode", "migration", "--treatment-out", "{out}/b.csv", "--span-days", "200000000000000"],
             "span-days"),
        ],
    )
    def test_options_wrong_together(self, capsys, monkeypatch, tmp_path, inputs, out, command, flags, name):
        """Options that each parse but do not fit together fail with exit 1,
        naming the one whose default makes them fit, before any input is read."""
        monkeypatch.setattr(cli_module, "_load_stats", lambda path: pytest.fail("read the stats"))
        flags = [flag.format(out=out) for flag in flags]
        code, doc = run_cli(capsys, *self.argv(command, inputs, out), *flags)
        assert (code, doc["error"]) == (1, f"invalid-flag:{name}")
        assert list(out.iterdir()) == []
        # From a config file, the same values fail as invalid-config.
        config = tmp_path / "bad.cfg"
        config.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])), encoding="utf-8")
        code, doc = run_cli(capsys, *self.argv(command, inputs, out), "--config", str(config))
        assert (code, doc["error"]) == (1, "invalid-config")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["noise_floor", "bogus-key", "t3-exclude-self", "min-records-t3"])
    def test_unknown_config_key(self, capsys, tmp_path, inputs, out, key):
        """A key no command declares fails and names its line; a key that
        only another command declares (``epochs``) is a shared default."""
        config = tmp_path / "stale.cfg"
        config.write_text(f"# defaults\nepochs = 2\n{key} = 1\n", encoding="utf-8")
        code, doc = run_cli(capsys, *self.argv("label", inputs, out), "--config", str(config))
        assert (code, doc["error"]) == (1, "invalid-config")
        assert doc["detail"].startswith("line 3:") and repr(key) in doc["detail"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("t3-exclude-self", "1"), ("min-records-t3", "2")])
    def test_removed_label_flags_are_unknown(self, capsys, inputs, out, flag, value):
        code, doc = run_cli(capsys, *self.argv("label", inputs, out), f"--{flag}", value)
        assert (code, doc["error"]) == (1, "invalid-usage")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", list(VALID_ARGV))
    def test_unknown_flag(self, capsys, inputs, out, command):
        code, doc = run_cli(capsys, *self.argv(command, inputs, out), "--bogus", "1")
        assert (code, doc["error"]) == (1, "invalid-usage")
        assert "--bogus" in doc["detail"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["nope"], ["nope", "--out", "x"], ["fit-stats", "--log"], ["--bogus"], []],
        ids=["unknown-command", "unknown-command-with-flags", "missing-value", "unknown-top-flag", "no-command"],
    )
    def test_malformed_argv(self, capsys, argv):
        code, doc = run_cli(capsys, *argv)
        assert code == 1
        assert doc["error"] == ("missing-command" if not argv else "invalid-usage")


def test_train_does_not_import_numpy_ma(inputs, tmp_path):
    """``train``'s distinct-row pass is ``np.unique`` with ``return_inverse``;
    the plain call imports ``numpy.ma``, about 0.6 MB and 9 ms."""
    argv = ["train", "--labeled", inputs["labeled"], "--ndt-params", inputs["params"],
            "--checkpoint", str(tmp_path / "model.ckpt"), "--epochs", "1"]
    code = f"import sys; from readweight.cli import main; main({argv!r}); print('numpy.ma' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(TestProcess.SRC)},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done
    assert done.stdout.splitlines()[-1] == "False"


class TestProcess:
    """``python -m readweight.cli`` as a process, the way its console script
    runs: the exit code, and exactly one JSON line on stdout with nothing on
    stderr, once the process has ended."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run(self, cwd, *argv):
        # Block-buffered stdout, as a piped console script has it, so an unflushed line is lost.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(self.SRC)
        return subprocess.run(
            [sys.executable, "-m", "readweight.cli", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    @pytest.mark.parametrize(
        "argv, code, key",
        [
            (["--version"], 0, "version"),
            (["ndt-params", "--stats", "{stats}", "--out", "params.json"], 0, "solved"),
            (["ndt-params", "--stats", "{stats}", "--bogus", "1"], 1, "error"),
            (["fit-stats", "--log", "empty.csv"], 2, "error"),
        ],
        ids=["version", "ndt-params", "unknown-flag", "empty-log"],
    )
    def test_one_json_line_and_exit_code(self, inputs, tmp_path, argv, code, key):
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        done = self.run(tmp_path, *(arg.format(**inputs) for arg in argv))
        lines = done.stdout.splitlines()
        assert (done.returncode, len(lines), done.stderr) == (code, 1, ""), done
        assert key in json.loads(lines[0])
        assert (tmp_path / "params.json").exists() == (argv[0] == "ndt-params" and code == 0)

    def test_help_exits_zero(self, tmp_path):
        done = self.run(tmp_path, "-h")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: readweight")

    def test_failed_flush_exits_non_zero(self, monkeypatch):
        """``run`` ends the process itself, so a final flush that fails must
        set a non-zero status."""

        class ReaderGone(io.StringIO):
            def flush(self):
                raise BrokenPipeError("reader gone")

        ended = []
        monkeypatch.setattr(sys, "argv", ["readweight", "--version"])
        monkeypatch.setattr(sys, "stdout", ReaderGone())
        monkeypatch.setattr(cli_module.os, "_exit", ended.append)
        cli_module.run()
        assert ended == [120]


# Hostile values for any option: non-finite, negative, zero, empty, and lists
# of the wrong length (one item, two, nine).  A huge value goes only to the
# options whose parser has an upper bound, so nothing large is allocated.
HOSTILE = ("nan", "inf", "-inf", "-1", "0", "", "5", "5,5", "1,2,3,4,5,6,7,8,9")
HUGE = "1" + "0" * 30
BOUNDED = {
    ("stats-report", "bins"), ("build-profiles", "eps"), ("build-profiles", "switch-threshold"),
    ("simulate", "span-days"),
}
OPTIONS = sorted((command, name) for command, flags in _COMMAND_FLAGS.items() for name in flags)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Every command's inputs, from a 30-user log."""
    root = tmp_path_factory.mktemp("tiny")
    paths = {name: str(root / name) for name in ("log", "stats", "profiles", "labeled", "params", "checkpoint")}
    steps = [
        ["simulate", "--seed", "3", "--users", "30", "--items", "12", "--out", paths["log"]],
        ["fit-stats", "--log", paths["log"], "--out", paths["stats"]],
        ["build-profiles", "--log", paths["log"], "--out", paths["profiles"]],
        ["label", "--log", paths["log"], "--stats", paths["stats"], "--profiles", paths["profiles"],
         "--out", paths["labeled"]],
        ["ndt-params", "--stats", paths["stats"], "--out", paths["params"]],
        ["train", "--labeled", paths["labeled"], "--ndt-params", paths["params"],
         "--checkpoint", paths["checkpoint"], "--epochs", "1"],
    ]
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return paths


@settings(max_examples=150, deadline=None)
@given(
    option=st.sampled_from(OPTIONS),
    value=st.sampled_from(HOSTILE),
    huge=st.booleans(),
)
def test_hostile_option_values_print_one_json_line(tiny_inputs, option, value, huge):
    """Any one option set to a hostile value, as a flag: one JSON line on
    stdout, exit 0, 1 or 2, nothing on stderr, and nothing written on exit 1.
    Commands run in a fresh directory, so a value read as a relative output
    path lands there."""
    command, name = option
    if huge and option in BOUNDED:
        value = HUGE
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as out:
        argv = [command, *(arg.format(out=out, **tiny_inputs) for arg in VALID_ARGV[command])]
        if f"--{name}" in argv:
            at = argv.index(f"--{name}")
            del argv[at : at + 2]
        os.chdir(out)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, f"--{name}", value])
            written = os.listdir(out)
        finally:
            os.chdir(home)
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1 and stderr.getvalue() == "", (argv, value, stdout.getvalue(), stderr.getvalue())
    doc = json.loads(lines[0])
    assert code in (0, 1, 2), (argv, value, doc)
    if code == 1:
        assert written == [], (argv, value, doc)

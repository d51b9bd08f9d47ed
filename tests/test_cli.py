from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
from pathlib import Path

import pytest

from readweight.cli import main
from readweight.dwell_stats import DwellStats
from readweight.events import LOG_HEADER, read_log, serialize_event, write_log
from readweight.labeling import LABELED_HEADER, LabelingConfig, label_log, serialize_labeled
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
        stats = DwellStats.from_json(workspace["stats"].read_text())
        assert doc["paper_default"] == json.loads(paper_default_params().to_json())
        assert doc["solved"] == json.loads(NdtParams.solve(stats.x_l, stats.x_h).to_json())

    def test_label_defaults_come_from_labeling_config(self, workspace):
        table, _ = read_log(workspace["log"])
        stats = DwellStats.from_json(workspace["stats"].read_text())
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

    def test_malformed_log_is_runtime_failure(self, capsys, tmp_path):
        log = tmp_path / "bad.csv"
        log.write_text("not,a,log\n", encoding="utf-8")
        code, doc = run_cli(capsys, "fit-stats", "--log", str(log))
        assert code == 2
        assert doc["error"] == "bad-line-budget-exceeded"

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

    @pytest.mark.parametrize("text", ["{}", "5", '{"mu": [1]}', '{"paper_default": {"offset": 1}}'])
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
    bytes with the version field 4 and a CRC-32 appended).  The
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
            ("build-profiles", "switch-threshold", "big"),
            ("build-profiles", "eps", "tiny"),
            ("label", "light-max-clicks", "many"),
            ("label", "noise-floor", "3s"),
            ("label", "header", "bogus"),
            ("ndt-params", "precision", "fine"),
            ("train", "objective", "nope"),
            ("train", "neg-mode", "both"),
            ("train", "params-mode", "fitted"),
            ("train", "tower-dims", "64,x"),
            ("eval", "base-auc", "high"),
            ("migrate-report", "boundaries", "1,x"),
            ("migrate-report", "header", "bogus"),
        ],
    )
    def test_bad_value(self, capsys, tmp_path, inputs, out, command, name, value):
        argv = self.argv(command, inputs, out)
        code, doc = run_cli(capsys, *argv, f"--{name}", value)
        assert (code, doc["error"]) == (1, f"invalid-flag:{name}")
        assert list(out.iterdir()) == []
        # A config file's text goes through the same parser.
        config = tmp_path / "bad.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        code, doc = run_cli(capsys, *argv, "--config", str(config))
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

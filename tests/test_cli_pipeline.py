"""CLI and orchestration behavior at micro scale: exit codes, frozen configs,
stage resume, and staged-command flows."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from anomvox.cli import main
from anomvox.config import (
    PipelineConfig,
    SamplingConfig,
    SplitConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    quick_profile,
    save_config,
)
from anomvox.models import TrainConfig
from anomvox.phantom import PhantomSpec
from anomvox.pipeline import Logger, run_pipeline

MICRO = dict(
    seed=7,
    phantom=PhantomSpec(
        n_controls=6, n_patients=3, dims=(24, 40, 40), anomaly_magnitude=0.2,
        lesion_radius=2.5, lesions_per_patient=2, noise_sigma=0.02,
    ),
    split=SplitConfig(n_samples=1, n_train=4, n_test=2),
    sampling=SamplingConfig(slice_count=10, patches_per_subject=150),
    ae_train=TrainConfig(epochs=2, batch_size=8, seed=7),
    sae_train=TrainConfig(epochs=1, batch_size=64, alpha=0.005, seed=7),
)


def micro_config(out_dir: Path) -> PipelineConfig:
    return PipelineConfig(out_dir=str(out_dir), **MICRO)


def micro_args(out_dir: Path) -> list[str]:
    return [
        "--out", str(out_dir),
        "--seed", "7",
        "--n-controls", "6", "--n-patients", "3",
        "--dims", "24", "40", "40",
        "--delta", "0.2", "--lesion-radius", "2.5", "--lesions", "2", "--sigma", "0.02",
        "--n-splits", "1", "--n-train", "4", "--n-test", "2",
        "--slice-count", "10", "--patches-per-subject", "150",
        "--ae-epochs", "2", "--sae-epochs", "1",
    ]


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    assert main(["run", *micro_args(out), "--ae-epochs", "2"]) == 0
    return out


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = quick_profile()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = micro_config(tmp_path / "x")
        save_config(cfg, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == cfg
        assert config_hash(load_config(tmp_path / "c.json")) == config_hash(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            config_from_dict({"bogus": 1})

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(Exception, match="n_train"):
            PipelineConfig(
                phantom=PhantomSpec(n_controls=10, n_patients=2),
                split=SplitConfig(n_samples=1, n_train=4, n_test=2),
            )

    def test_quick_profile_published_defaults(self):
        cfg = quick_profile()
        assert cfg.phantom.dims == (48, 56, 48)
        assert cfg.phantom.n_controls == 30 and cfg.phantom.n_patients == 15
        assert cfg.phantom.anomaly_magnitude == 0.15
        assert cfg.phantom.noise_sigma == 0.02
        assert cfg.split.n_samples == 2

    def test_paper_scale_defaults(self):
        cfg = PipelineConfig()
        assert cfg.split.n_samples == 10
        assert cfg.split.n_train == 41 and cfg.split.n_test == 15
        assert cfg.sampling.slice_count == 40
        assert cfg.sampling.patches_per_subject == 15_000
        assert cfg.ae_train.epochs == 160 and cfg.ae_train.batch_size == 40
        assert cfg.sae_train.epochs == 30 and cfg.sae_train.batch_size == 225
        assert cfg.anomaly.quantile == 0.98


class TestCliValidation:
    def test_synth_exit_zero_and_rerun_guard(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", *micro_args(out)]) == 0
        assert (out / "cohort" / "manifest.json").exists()
        assert main(["synth", *micro_args(out)]) == 1  # without --force
        assert main(["synth", *micro_args(out), "--force"]) == 0

    def test_invalid_phantom_spec_exit_one(self, tmp_path):
        args = micro_args(tmp_path / "bad")
        i = args.index("--delta")
        args[i + 1] = "0.0"
        assert main(["synth", *args]) == 1

    def test_missing_cohort_exit_one(self, tmp_path):
        assert main(["train", *micro_args(tmp_path / "none")]) == 1

    def test_missing_atlas_fails_before_training(self, tmp_path):
        out = tmp_path / "noatlas"
        assert main(["synth", *micro_args(out)]) == 0
        for p in (out / "cohort" / "atlases").glob("micro.*"):
            p.unlink()
        assert main(["run", *micro_args(out)]) == 1
        assert not (out / "splits" / "split_01" / "ae.anom").exists()

    def test_stale_cohort_exit_one(self, tmp_path, capsys):
        out = tmp_path / "stale"
        assert main(["synth", *micro_args(out)]) == 0
        capsys.readouterr()
        assert main(["run", *micro_args(out), "--delta", "0.25"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "anomvox synth --force" in err[0]
        assert not (out / "splits" / "split_01" / "ae.anom").exists()
        assert load_config(out / "config.json").phantom.anomaly_magnitude == 0.2

    @pytest.mark.parametrize("command", ["split", "run"])
    def test_unbalanceable_controls_exit_one(self, tmp_path, command, capsys):
        # Seed 0's six micro controls admit no 4/2 split within the age and
        # female-fraction tolerances.
        args = micro_args(tmp_path / "unbalanced") + ["--seed", "0"]
        if command == "split":
            assert main(["synth", *args]) == 0
        capsys.readouterr()
        assert main([command, *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split 1: no balanced partition")
        assert "age tolerance" in err[0] and "female range" in err[0]

    def test_config_quick_conflict(self, tmp_path):
        assert main(["run", "--config", "x.json", "--quick", "--out", str(tmp_path)]) == 1

    def test_config_with_unknown_key_exit_one(self, tmp_path, capsys):
        # A config frozen before the determinism switch was removed.
        doc = config_to_dict(micro_config(tmp_path / "old"))
        doc["deterministic"] = True
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'deterministic'" in err[0]

    @pytest.mark.parametrize(
        "doc", [{"seed": "abc"}, {"split": {"n_train": "x"}}, {"phantom": {"dims": 5}}, None]
    )
    def test_config_value_of_wrong_type_exit_one(self, tmp_path, doc, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["split", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: bad config value"), err


class TestFullCliRun(object):
    def test_results_tree(self, completed_run):
        out = completed_run
        assert (out / "config.json").exists()
        assert (out / "splits.json").exists()
        sdir = out / "splits" / "split_01"
        for name in (
            "ae.anom", "sae.anom", "ae_train_log.csv", "sae_train_log.csv",
            "threshold_ae.json", "threshold_sae.json",
            "scores_ae.csv", "scores_sae.csv", "roc_ae.json", "roc_sae.json",
        ):
            assert (sdir / name).exists(), name
        assert (out / "summary" / "bootstrap_summary.csv").exists()
        assert (out / "summary" / "gmean_bars.svg").exists()

    def test_seventeen_regions_per_model(self, completed_run):
        doc = json.loads((completed_run / "splits" / "split_01" / "roc_ae.json").read_text())
        assert len(doc) == 17
        assert "whole-brain" in doc

    def test_frozen_config_matches_flags(self, completed_run):
        cfg = load_config(completed_run / "config.json")
        assert cfg.phantom.dims == (24, 40, 40)
        assert cfg.seed == 7

    def test_train_log_header(self, completed_run):
        for kind, epochs in (("ae", 2), ("sae", 1)):
            log = (completed_run / "splits" / "split_01" / f"{kind}_train_log.csv").read_text()
            lines = log.splitlines()
            assert lines[0] == "epoch,mean_loss"
            assert [line.split(",")[0] for line in lines[1:]] == [str(e + 1) for e in range(epochs)]

    def test_resume_skips_completed_stages(self, completed_run, capsys):
        assert main(["run", *micro_args(completed_run), "--ae-epochs", "2", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipping completed" in out or "already complete" in out

    def test_resume_with_changed_config_rejected(self, completed_run):
        args = micro_args(completed_run) + ["--quantile", "0.95", "--resume"]
        assert main(["run", *args]) == 1

    @pytest.mark.parametrize("command", ["train", "threshold", "infer", "score", "evaluate"])
    def test_unknown_split_exit_one(self, completed_run, command, capsys):
        assert main([command, *micro_args(completed_run), "--split", "9"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: no split plan with sample_index 9"]


@pytest.fixture
def copied_run(completed_run, tmp_path):
    """A private copy of the finished micro run, in another directory."""
    out = tmp_path / "copy"
    shutil.copytree(completed_run, out)
    return out


class TestResumeAndFailures:
    def test_resume_with_other_jobs_in_copied_dir(self, copied_run, capsys):
        # Neither --jobs nor --out enters the config hash.
        assert main(["run", *micro_args(copied_run), "--resume", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for marker in ("synth", "split", "split01_train", "split01_evaluate", "report"):
            assert f"skipping completed {marker}" in out, marker
        assert "[train]" not in out

    def test_corrupt_checkpoint_exit_two(self, copied_run, capsys):
        ckpt = copied_run / "splits" / "split_01" / "ae.anom"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        marker = copied_run / "stage_status" / "split01_threshold.json"
        capsys.readouterr()
        assert main(["threshold", *micro_args(copied_run), "--split", "1"]) == 2
        self._assert_one_error_line(capsys.readouterr().err, "'threshold'")
        assert not marker.exists()  # the failed rerun dropped the old marker
        assert main(["run", *micro_args(copied_run), "--resume"]) == 2
        self._assert_one_error_line(capsys.readouterr().err, "'threshold'")

    @pytest.mark.parametrize(
        "name, command",
        [
            ("splits.json", ["score"]),
            ("splits.json", ["score", "--split", "1"]),
            ("cohort/manifest.json", ["run", "--resume"]),
            ("cohort/manifest.json", ["train", "--split", "1"]),
        ],
    )
    def test_corrupt_json_exit_one(self, copied_run, name, command, capsys):
        (copied_run / name).write_text("{broken\n")
        capsys.readouterr()
        assert main([command[0], *micro_args(copied_run), *command[1:]]) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: corrupt"), err
        assert str(copied_run / name) in lines[0] and "Traceback" not in err

    @staticmethod
    def _assert_one_error_line(err: str, stage: str) -> None:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: stage " + stage), err
        assert "Traceback" not in err

    def test_single_stage_markers_let_run_resume(self, tmp_path, capsys):
        out = tmp_path / "staged"
        for command in ("synth", "split", "train"):
            assert main([command, *micro_args(out)]) == 0, command
        capsys.readouterr()
        assert main(["run", *micro_args(out), "--resume"]) == 0
        log = capsys.readouterr().out
        assert "skipping completed split01_train" in log
        assert "skipping completed split01_threshold" not in log

    def test_jobs_two_byte_identical(self, tmp_path):
        runs = {}
        for jobs in ("1", "2"):
            runs[jobs] = tmp_path / f"jobs{jobs}"
            args = micro_args(runs[jobs]) + ["--n-splits", "2", "--jobs", jobs]
            assert main(["run", *args]) == 0
        a, b = runs["1"], runs["2"]
        compared = 0
        for pattern in ("*.anom", "*.csv", "*.svg", "*.mvol", "splits.json"):
            for pa in sorted(a.rglob(pattern)):
                rel = pa.relative_to(a)
                assert pa.read_bytes() == (b / rel).read_bytes(), rel
                compared += 1
        assert (a / "splits" / "split_02" / "roc_sae.json").exists()
        assert compared >= 40


class TestStagedCommands:
    def test_readme_staged_example(self, tmp_path):
        # Flags go to synth, which freezes config.json; the later commands
        # read it from the bare --out.
        out = tmp_path / "demo"
        assert main(["synth", *micro_args(out), "--models", "ae"]) == 0
        assert main(["split", "--out", str(out)]) == 0
        for command in ("train", "threshold", "infer", "score", "evaluate"):
            assert main([command, "--out", str(out), "--split", "1"]) == 0, command
        assert main(["report", "--out", str(out)]) == 0
        split_dir = out / "splits" / "split_01"
        assert (split_dir / "roc_ae.json").exists()
        assert not (split_dir / "sae.anom").exists()
        assert (out / "summary" / "bootstrap_summary.csv").exists()

    def test_stagewise_equals_run(self, tmp_path):
        out = tmp_path / "staged"
        args = micro_args(out)
        for command in ("synth", "split", "train", "threshold", "infer", "score", "evaluate", "report"):
            assert main([command, *args]) == 0, command
        assert (out / "summary" / "bootstrap_summary.csv").exists()

    def test_json_logs(self, tmp_path, capsys):
        out = tmp_path / "jl"
        assert main(["synth", *micro_args(out), "--json-logs"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.strip()][-1]
        doc = json.loads(line)
        assert doc["stage"] == "synth"

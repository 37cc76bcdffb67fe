"""CLI and orchestration behavior at micro scale: exit codes, frozen configs,
stage resume, and staged-command flows."""

import dataclasses
import functools
import hashlib
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from anomvox import cli, pipeline
from anomvox.anomaly import AbnormalityThreshold, save_threshold
from anomvox.cli import FLAGS, build_parser, main
from anomvox.config import (
    ConfigError,
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
from anomvox.models import SAETrainConfig, TrainConfig
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
    sae_train=SAETrainConfig(epochs=1, batch_size=64, alpha=0.005, seed=7),
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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"split": {"n_train": "x"}}, "bad config value split.n_train: expected int, got 'x'"),
            ({"phantom": {"dims": 5}}, "bad config value phantom.dims: expected list of 3 int, got 5"),
            ({"phantom": {"dims": [48, 56.5, 48]}}, "phantom.dims: expected list of 3 int"),
            ({"anomaly": {"quantile": "high"}}, "anomaly.quantile: expected float, got 'high'"),
            ({"sae_train": {"epochs": True}}, "sae_train.epochs: expected int, got True"),
        ],
    )
    def test_wrong_type_names_the_key(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert message in str(info.value)

    def test_sae_patch_size_rejected_up_front(self):
        with pytest.raises(ConfigError, match="the SAE takes 15x15 patches, got sampling.patch_size 13"):
            config_from_dict({"sampling": {"patch_size": 13}})
        ae_only = config_from_dict({"models": ["ae"], "sampling": {"patch_size": 13}})
        assert ae_only.sampling.patch_size == 13

    def test_int_accepted_for_float(self):
        assert config_from_dict({"anomaly": {"quantile": 0.9}, "sae_train": {"alpha": 0}}).sae_train.alpha == 0

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"ae_train": {"epochs": 0}}, "ae_train.epochs must be a finite number >= 1, got 0"),
            ({"sae_train": {"epochs": -2}}, "sae_train.epochs must be a finite number >= 1, got -2"),
            ({"ae_train": {"batch_size": 0}}, "ae_train.batch_size must be a finite number >= 1, got 0"),
            ({"sae_train": {"learning_rate": 0}}, "sae_train.learning_rate must be a finite number > 0, got 0"),
            ({"ae_train": {"learning_rate": -1e-3}}, "ae_train.learning_rate must be a finite number > 0"),
            ({"ae_train": {"learning_rate": float("nan")}}, "ae_train.learning_rate must be a finite number > 0, got nan"),
            ({"sae_train": {"learning_rate": float("inf")}}, "sae_train.learning_rate must be a finite number > 0, got inf"),
            ({"sae_train": {"alpha": -0.5}}, "sae_train.alpha must be a finite number >= 0, got -0.5"),
            ({"split": {"n_samples": 0}}, "split.n_samples must be a finite number >= 1, got 0"),
            ({"split": {"n_train": 0, "n_test": 30}}, "split.n_train must be a finite number >= 1, got 0"),
            ({"split": {"n_train": 30, "n_test": 0}}, "split.n_test must be a finite number >= 1, got 0"),
            ({"sampling": {"slice_count": 0}}, "sampling.slice_count must be a finite number >= 1, got 0"),
            ({"sampling": {"patches_per_subject": 0}}, "sampling.patches_per_subject must be a finite number >= 1, got 0"),
            ({"split": {"age_tolerance": -1}}, "split.age_tolerance must be a finite number >= 0, got -1"),
            ({"split": {"age_tolerance": float("nan")}}, "split.age_tolerance must be a finite number >= 0, got nan"),
            ({"split": {"female_range": [0.6, 0.4]}},
             "split.female_range must be an ordered pair of fractions in [0, 1], got [0.6, 0.4]"),
            ({"split": {"female_range": [-0.1, 0.5]}}, "split.female_range must be an ordered pair"),
            ({"split": {"female_range": [0.3, 1.5]}}, "split.female_range must be an ordered pair"),
            ({"split": {"female_range": [float("nan"), 0.5]}}, "fractions in [0, 1], got [nan, 0.5]"),
        ],
        ids=["ae-epochs", "sae-epochs", "batch", "lr-0", "lr-neg", "lr-nan", "lr-inf", "alpha",
             "splits", "n-train", "n-test", "slices", "patches", "age-tolerance-neg", "age-tolerance-nan",
             "female-range-reversed", "female-range-below-0", "female-range-above-1", "female-range-nan"],
    )
    def test_out_of_range_value_names_the_key(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc, base=quick_profile())
        assert message in str(info.value)

    def test_range_edges_accepted(self):
        doc = {"sae_train": {"alpha": 0, "epochs": 1, "batch_size": 1},
               "split": {"n_samples": 1, "age_tolerance": 0, "female_range": [0, 1]},
               "sampling": {"slice_count": 1, "patches_per_subject": 1}}
        cfg = config_from_dict(doc, base=quick_profile())
        assert cfg.sae_train.alpha == 0 and cfg.sampling.patches_per_subject == 1

    def test_repeated_model_rejected(self):
        with pytest.raises(ConfigError, match="model 'ae' selected more than once"):
            config_from_dict({"models": ["ae", "sae", "ae"]})

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
        # A refused synth, here with another flag, leaves the frozen config
        # and the completion marker as they were.
        kept = [out / "config.json", out / "stage_status" / "synth.json"]
        before = [path.read_bytes() for path in kept]
        assert main(["synth", *micro_args(out), "--dims", "26", "40", "40"]) == 1  # without --force
        assert [path.read_bytes() for path in kept] == before
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

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({"split": {"n_train": "x"}}, "error: bad config value split.n_train: expected int, got 'x'"),
            ({"phantom": {"dims": 5}}, "error: bad config value phantom.dims: expected list of 3 int, got 5"),
            # The AE has no cosine term, so only sae_train carries alpha.
            ({"ae_train": {"alpha": 0.5}}, "error: unknown keys in config ae_train: ['alpha']"),
            # The phantom recipe beyond the cohort's size, lesions and noise is fixed.
            ({"phantom": {"voxel_size_mm": [1.5, 1.5, 1.5]}},
             "error: unknown keys in config phantom: ['voxel_size_mm']"),
        ],
        ids=["n_train", "dims", "ae-alpha", "phantom-voxel-size"],
    )
    def test_config_error_names_the_key(self, tmp_path, doc, line, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["split", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == line + "\n"


    def test_sae_patch_size_exit_one_before_any_stage(self, tmp_path, capsys):
        doc = config_to_dict(micro_config(tmp_path / "p13"))
        doc["sampling"]["patch_size"] = 13
        path = tmp_path / "p13.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the SAE takes 15x15 patches, got sampling.patch_size 13"]
        assert not (tmp_path / "p13").exists()

    # A split rule that no partition can meet would otherwise surface only
    # after the whole cohort is synthesized, as an unbalanceable cohort.
    @pytest.mark.parametrize(
        "split, message",
        [
            ({"age_tolerance": -1.0}, "error: split.age_tolerance must be a finite number >= 0, got -1.0"),
            ({"female_range": [0.6, 0.4]},
             "error: split.female_range must be an ordered pair of fractions in [0, 1], got [0.6, 0.4]"),
        ],
        ids=["age_tolerance", "female_range"],
    )
    def test_impossible_split_rule_exit_one_before_any_stage(self, tmp_path, split, message, capsys):
        doc = config_to_dict(micro_config(tmp_path / "rule"))
        doc["split"].update(split)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "rule").exists()

    # A recipe that breaks the cohort (NaN volumes from a NaN noise level,
    # atlases or lesions that do not fit the phantom) is bad input, refused
    # before any volume is written.
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("noise_sigma", float("nan"), "noise sigma must be a finite number >= 0, got nan"),
            ("noise_sigma", float("inf"), "noise sigma must be a finite number >= 0, got inf"),
            ("dims", [24, 24, 24], "too small to place 8 core regions"),
            ("lesion_radius", 11, "leaves no admissible center"),
            ("lesion_radius", 20, "is wider than the phantom's shortest axis (24 voxels)"),
            ("lesion_radius", 30, "is wider than the phantom's shortest axis (24 voxels)"),
        ],
        ids=["noise_sigma-nan", "noise_sigma-inf", "dims",
             "lesion_radius-11", "lesion_radius-20", "lesion_radius-30"],
    )
    def test_cohort_breaking_phantom_exit_one(self, tmp_path, key, value, message, capsys):
        doc = config_to_dict(micro_config(tmp_path / "bad"))
        doc["phantom"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not list(tmp_path.rglob("*.mvol"))


@pytest.fixture(scope="module")
def split_only(tmp_path_factory):
    """A micro run directory after synth and split, with nothing trained."""
    out = tmp_path_factory.mktemp("split_only")
    assert main(["synth", *micro_args(out)]) == 0
    assert main(["split", "--out", str(out)]) == 0
    return out


class TestMissingInputs:
    """A stage whose inputs an earlier stage has not written yet exits 1 with
    one line that names the missing file and the command that writes it."""

    @staticmethod
    def _error_line(capsys, argv) -> str:
        capsys.readouterr()
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        return lines[0]

    def test_split_and_report_before_synth(self, tmp_path, capsys):
        out = tmp_path / "empty"
        line = self._error_line(capsys, ["split", *micro_args(out)])
        assert line == f"error: no cohort manifest at {out / 'cohort' / 'manifest.json'}; run synth first"
        line = self._error_line(capsys, ["report", *micro_args(out)])
        assert line == f"error: no split plans at {out / 'splits.json'}; run split first"

    @pytest.mark.parametrize(
        "command, missing, then",
        [
            ("threshold", "missing checkpoint {d}/ae.anom", "run train first"),
            ("score", "missing threshold {d}/threshold_ae.json", "run threshold first"),
            ("evaluate", "missing score table {d}/scores_ae.csv", "run score first"),
        ],
    )
    def test_per_split_stage_before_its_input(self, split_only, command, missing, then, capsys):
        split_dir = split_only / "splits" / "split_01"
        line = self._error_line(capsys, [command, "--out", str(split_only)])
        assert line == f"error: {missing.format(d=split_dir)}; {then}"

    def test_score_with_threshold_but_no_maps(self, split_only, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(split_only, out)
        split_dir = out / "splits" / "split_01"
        split_dir.mkdir(parents=True)
        save_threshold(AbnormalityThreshold(q=0.98, value=0.1, source="ae:x", pool_size=1),
                       split_dir / "threshold_ae.json")
        line = self._error_line(capsys, ["score", "--out", str(out)])
        assert line.startswith(f"error: missing error map {split_dir / 'maps'}/")
        assert line.endswith("_ae.mvol; run infer first")

    def test_report_before_any_evaluate(self, split_only, capsys):
        line = self._error_line(capsys, ["report", "--out", str(split_only)])
        assert line == "error: no completed split evaluations to report"


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


class TestFlags:
    @pytest.mark.parametrize(
        "argv, start",
        [
            (["train", "--n-train", "x"], "error: argument --n-train: invalid int value: 'x'"),
            (["run", "--aggregate", "bogus"], "error: unknown aggregation mode 'bogus'"),
            (["bogus"], "error: argument command: invalid choice: 'bogus'"),
            ([], "error: the following arguments are required: command"),
        ],
        ids=["n-train", "aggregate", "command", "none"],
    )
    def test_bad_flag_exit_one_with_one_line(self, tmp_path, argv, start, capsys):
        out = ["--out", str(tmp_path / "out")] if argv[1:] else []
        assert main([*argv, *out]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(start), captured.err
        assert not (tmp_path / "out").exists()

    # Each of these once got past the config: training with no epochs or no
    # slices, sampling no patches or running no split failed only at its
    # stage, a negative learning rate trained by gradient ascent, an empty
    # training or test side wrote the cohort and then divided by zero in the
    # split stage, and a repeated model was scored and drawn twice.
    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--ae-epochs", "0"], "error: ae_train.epochs must be a finite number >= 1, got 0"),
            (["--slice-count", "0"], "error: sampling.slice_count must be a finite number >= 1, got 0"),
            (["--slice-count", "30"], "error: sampling.slice_count 30 exceeds the phantom depth 24"),
            (["--patches-per-subject", "0"],
             "error: sampling.patches_per_subject must be a finite number >= 1, got 0"),
            (["--n-splits", "0"], "error: split.n_samples must be a finite number >= 1, got 0"),
            (["--ae-lr", "-1"], "error: ae_train.learning_rate must be a finite number > 0, got -1.0"),
            (["--n-train", "6", "--n-test", "0"], "error: split.n_test must be a finite number >= 1, got 0"),
            (["--n-train", "0", "--n-test", "6"], "error: split.n_train must be a finite number >= 1, got 0"),
            (["--models", "ae,ae"], "error: model 'ae' selected more than once"),
        ],
        ids=["ae-epochs", "slice-count", "slice-count-depth", "patches", "n-splits", "ae-lr", "n-test",
             "n-train", "models"],
    )
    def test_out_of_range_flag_exit_one_before_any_stage(self, tmp_path, flags, line, capsys):
        out = tmp_path / "out"
        assert main(["run", *micro_args(out), *flags]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: anomvox" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", sorted(FLAGS))
    def test_flag_sets_config_fields_of_its_type(self, flag):
        defaults = PipelineConfig()
        values = [functools.reduce(getattr, name.split("."), defaults) for name in FLAGS[flag]]
        assert {type(v) for v in values} == {type(values[0])}
        default = values[0]
        assert not dataclasses.is_dataclass(default), "a flag sets a field, not a section"
        if flag == "--models":
            words = [",".join(default)]
        elif isinstance(default, tuple):
            words = [str(v) for v in default]
        else:
            words = [str(default)]
        parsed = getattr(build_parser().parse_args(["train", flag, *words]), _dest(flag))
        if isinstance(default, tuple):
            assert tuple(parsed) == default and all(type(p) is type(d) for p, d in zip(parsed, default))
        else:
            assert parsed == default and type(parsed) is type(default)

    def test_models_both(self):
        assert build_parser().parse_args(["run", "--models", "both"]).models == ("ae", "sae")

    # sha256 of config.json and config_hash, pinned when the fixed phantom
    # recipe and checkpoint_every left the config (flags and config files
    # freeze the same bytes); a changed digest would orphan existing runs'
    # markers.
    @pytest.mark.parametrize(
        "argv, digest, cfg_hash",
        [
            (micro_args(Path("run")),
             "ffa0bb90c8153369120ee6d66796789af825e61acda42b75f4a5df537f5ffa13", "121180e03bbfcf02"),
            (["--quick", "--out", "run"],
             "d4a2434740858b0f0afe9ded5fb8a9a819fc53a332cd379a01a2cfd4680a08ab", "2ee245bd8bc75344"),
            (["--quick", "--out", "run", "--models", "sae", "--aggregate", "overlap-mean",
              "--quantile", "0.95", "--alpha", "0", "--ae-lr", "0.002"],
             "d3e58d3517cc024f97514a20d5006f5aefdb4fc333ecbf2df82104814dcb4253", "5289455e2d7ab6be"),
        ],
        ids=["micro", "quick", "quick-flags"],
    )
    def test_frozen_config_bytes(self, tmp_path, monkeypatch, argv, digest, cfg_hash):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "stage_synth", lambda cfg, log, force=False: None)
        assert main(["synth", *argv]) == 0
        frozen = tmp_path / "run" / "config.json"
        assert hashlib.sha256(frozen.read_bytes()).hexdigest() == digest
        assert config_hash(load_config(frozen)) == cfg_hash


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


@pytest.fixture(scope="module")
def trained_by_jobs(tmp_path_factory):
    """Two micro splits trained by `train --jobs 1` and by `train --jobs 2`."""
    runs = {}
    for jobs in ("1", "2"):
        out = runs[jobs] = tmp_path_factory.mktemp(f"train_jobs{jobs}")
        assert main(["synth", *micro_args(out), "--n-splits", "2"]) == 0
        assert main(["split", "--out", str(out)]) == 0
        assert main(["train", "--out", str(out), "--jobs", jobs]) == 0
    return runs


class TestPerSplitJobs:
    def test_train_jobs_two_byte_identical(self, trained_by_jobs):
        a, b = trained_by_jobs["1"], trained_by_jobs["2"]
        compared = 0
        for pattern in ("*.anom", "*_train_log.csv"):
            for pa in sorted(a.rglob(pattern)):
                assert pa.read_bytes() == (b / pa.relative_to(a)).read_bytes(), pa
                compared += 1
        assert compared == 8

    def test_unknown_split_with_jobs_exit_one(self, trained_by_jobs, capsys):
        out = str(trained_by_jobs["2"])
        assert main(["train", "--out", out, "--split", "9", "--jobs", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: no split plan with sample_index 9"]

    def test_worker_stage_failure_exit_two(self, trained_by_jobs, tmp_path, capsys):
        out = tmp_path / "copy"
        shutil.copytree(trained_by_jobs["2"], out)
        ckpt = out / "splits" / "split_02" / "ae.anom"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        capsys.readouterr()
        assert main(["threshold", "--out", str(out), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: stage 'threshold' failed"), err
        assert str(ckpt) in lines[0]


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so the test starts no processes."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        FakePool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestSplitWorkerCount:
    """run_splits starts at most one worker process per split: a fork pool
    starts all of max_workers at the first submit."""

    @pytest.mark.parametrize(
        "jobs, n_plans, indices, workers",
        [(64, 2, None, 2), (2, 3, None, 2), (3, 3, None, 3), (64, 3, [3, 1], 2)],
    )
    def test_workers_capped_by_splits(self, tmp_path, monkeypatch, jobs, n_plans, indices, workers):
        plans = [SimpleNamespace(sample_index=i) for i in range(1, n_plans + 1)]
        ran = []
        monkeypatch.setattr(FakePool, "max_workers", [])
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(pipeline, "load_splits", lambda paths: plans)
        monkeypatch.setattr(pipeline, "run_split", lambda cfg, plan, **kw: ran.append(plan.sample_index))
        cfg = dataclasses.replace(micro_config(tmp_path), jobs=jobs)
        pipeline.run_splits(cfg, indices=indices)
        assert FakePool.max_workers == [workers]
        assert ran == (indices or [p.sample_index for p in plans])


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

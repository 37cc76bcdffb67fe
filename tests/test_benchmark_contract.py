"""The benchmark (perfbench/) drives the program through its public names: the
workloads' configs, the models' constructors and float64 copies, the stage
functions, load_cohort, the functions its checks call directly, and the
training loop's module-level adam_step, which its probe rebinds to time each
step.  These checks make those calls the way perfbench makes them, without
running a workload, so a rename or a signature change that would break the
benchmark fails here in seconds."""

import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from anomvox import anomaly, pipeline
from anomvox.config import PipelineConfig
from anomvox.models import AEModel, SAEModel, TrainConfig, train
from anomvox.nn import grad_check
from anomvox.sampling import eligible_patch_centers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RNG = np.random.default_rng(3)

# The positional arguments perfbench/workloads.py passes to each function.
CALLS = {
    "load_cohort": ("cfg",),
    "stage_synth": ("cfg", "log"),
    "stage_split": ("cfg", "paths", "log"),
    "stage_train": ("cfg", "plan", "cohort", "split_dir", "log"),
    "stage_threshold": ("cfg", "plan", "cohort", "models", "split_dir", "log"),
    "stage_infer": ("cfg", "plan", "cohort", "models", "split_dir", "log"),
    "stage_score": ("cfg", "plan", "cohort", "split_dir", "log"),
    "stage_evaluate": ("cfg", "plan", "split_dir", "log"),
    "stage_report": ("cfg", "paths", "log"),
}

# The calls perfbench/workloads.py's checks make outside the stage functions:
# each function with its positional and keyword arguments.
CHECK_CALLS = [
    (anomaly.error_volume_ae, ("model", "vol", "mask"), ("band_count",)),
    (anomaly.error_volume_sae, ("model", "vol", "mask"), ("aggregate",)),
    (eligible_patch_centers, ("mask", "patch_size"), ()),
    (grad_check, ("model", "batch"), ("tolerance", "samples_per_param", "seed")),
]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import workloads

    return workloads, probes


def test_workload_configs(bench, tmp_path):
    workloads, _ = bench
    assert sorted(workloads.WORKLOADS) == ["ae-train", "maps", "sae-train"]
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.config(tmp_path / name, 5)
        assert isinstance(cfg, PipelineConfig)
        assert (cfg.out_dir, cfg.seed, cfg.jobs) == (str(tmp_path / name), 5, 1)
        if isinstance(workload, workloads.TrainWorkload):
            assert cfg.models == (workload.model_kind,)
            assert workload.train_config(cfg).epochs == workloads.UNBOUNDED_EPOCHS
            assert workload.dataset_size(cfg) > 0


@pytest.mark.parametrize(
    "name, model, batch",
    [
        ("sae-train", SAEModel(seed=1), tuple(RNG.random((2, 5, 2, 15, 15), dtype=np.float32))),
        ("ae-train", AEModel((40, 36), seed=1), RNG.random((5, 2, 40, 36), dtype=np.float32)),
    ],
    ids=["sae", "ae"],
)
def test_float64_copies_run(bench, name, model, batch):
    workloads, _ = bench
    workload = workloads.WORKLOADS[name]
    copy = workload.float64_copy(model)
    assert type(copy) is type(model)
    for key, value in copy.params().items():
        assert value.dtype == np.float64 and np.array_equal(value, model.params()[key]), key
    small = workload.small_batch(types.SimpleNamespace(sample_batch=batch))
    loss, grads = copy.loss_and_grads(small)
    assert np.isfinite(loss) and list(grads) == list(copy.params())


def test_stage_signatures_take_perfbench_arguments():
    stages = {name for name in vars(pipeline) if name.startswith("stage_")}
    assert stages == set(CALLS) - {"load_cohort"}
    for name, args in CALLS.items():
        inspect.signature(getattr(pipeline, name)).bind(*args)
    assert pipeline.Logger(quiet=True).quiet
    paths = pipeline.run_paths(PipelineConfig(out_dir="out"))
    assert (paths.split_dir(1), paths.summary) == (Path("out/splits/split_01"), Path("out/summary"))


@pytest.mark.parametrize("fn, args, keywords", CHECK_CALLS, ids=[c[0].__name__ for c in CHECK_CALLS])
def test_check_calls_take_perfbench_arguments(fn, args, keywords):
    inspect.signature(fn).bind(*args, **dict.fromkeys(keywords))


def test_training_steps_reach_the_probe(bench, pair_set):
    # The probe times a step from one models.adam_step call to the next.
    _, probes = bench
    probe, patcher = probes.Probe(), probes.Patcher()
    x = np.random.default_rng(0).random((10, 2, 15, 15), dtype=np.float32)
    try:
        probe.install(patcher)
        train(SAEModel(seed=0), pair_set(x, x), TrainConfig(epochs=2, batch_size=4))
    finally:
        patcher.restore()
    assert len(probe.step_ends) == 6
    assert probe.batch_sizes == [4, 4, 2] * 2

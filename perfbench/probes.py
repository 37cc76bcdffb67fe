"""Wrappers the benchmark puts around the program's public functions and layer
methods.  Nothing under src/ is edited: every wrapper is installed by
rebinding a module attribute or a class method, and removed again afterwards.

Two levels:

- Probe, on in every timed phase: step boundaries and losses (training),
  per-map timings and output checks (maps), and the training deadline.  It
  adds a few microseconds per step or map.
- instrument_tracing(), on only in a traced run: a span around every layer
  forward/backward and every public function of the layers the benchmark
  reports on, recorded into a spans.Tracer.  The probe records the step and
  error-map spans itself.
"""

from __future__ import annotations

import ctypes
import os
import sys
from time import perf_counter

import numpy as np

from measure import conv_cost


class Deadline(Exception):
    """Raised after the training step that crosses the run's deadline."""


def release_free_heap() -> None:
    """Return freed heap pages to the OS (glibc malloc_trim), so that an RSS
    difference counts new allocations rather than reuse of freed memory."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def current_rss_mb() -> float:
    """Resident set size of this process now (not the peak), in MB (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Patcher:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, module, name: str, make_wrapper) -> None:
        """Wrap module.name, and rebind it in every anomvox module that
        imported it by name, so callers see the wrapper too."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("anomvox") and mod is not None:
                if mod.__dict__.get(name) is original:
                    self.set(mod, name, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        self.set(cls, name, make_wrapper(cls.__dict__[name]))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# probe: steps, losses, maps, deadline
# ---------------------------------------------------------------------------


class Probe:
    """Records what the timed phase needs for its metrics and checks: step
    ends, losses and batch sizes, and the deadline (training); per-map
    timings, value checks, threshold pools and score tables (maps).

    With a tracer, the probe also alternates tracing by step: odd training
    steps, and every second subject of each stage's map loop, run with the
    layer spans on; the others run with them off.  Traced and untraced steps
    thus share the machine's state at the time, and their medians give the
    tracing overhead.  The probe records a span for every step and map,
    traced or not, noted with "traced"."""

    def __init__(self, tracer=None, labels: "LayerLabels | None" = None) -> None:
        self.tracer = tracer
        self.labels = labels or LayerLabels()
        self.deadline: float | None = None
        # training
        self.step_ends: list[float] = []
        self.step_traced: list[bool] = []
        self.losses: list[float] = []
        self.batch_sizes: list[int] = []
        self.model = None
        self.sample_batch = None
        self._step_span: int | None = None
        # maps
        self.stage = ""
        self.maps: list[dict] = []
        self.pools: list[tuple[np.ndarray, object]] = []
        self.tables: list[object] = []
        self._map_counts: dict[tuple[str, str], int] = {}

    def install(self, patcher: Patcher) -> None:
        from anomvox import anomaly, evaluation, models

        patcher.function(models, "adam_step", self._wrap_adam)
        for cls in (models.AEModel, models.SAEModel):
            patcher.method(cls, "loss_and_grads", self._wrap_loss_and_grads)
        for kind in ("ae", "sae"):
            patcher.function(anomaly, f"error_volume_{kind}", self._map_wrapper(kind))
        patcher.function(anomaly, "abnormality_threshold", self._wrap_threshold)
        patcher.function(evaluation, "build_score_table", self._wrap_score_table)

    def _begin(self, name: str, traced: bool) -> int:
        """Open a step or map span and switch the layer spans on or off."""
        idx = self.tracer.begin(name, force=True)
        self.tracer.notes[idx] = {"traced": int(traced)}
        self.tracer.enabled = traced
        return idx

    def _end(self, idx: int) -> None:
        self.tracer.enabled = True
        self.tracer.end(idx)

    # -- training -------------------------------------------------------

    def _begin_step(self) -> None:
        if self.tracer is not None:
            self._step_span = self._begin("models.step", len(self.step_ends) % 2 == 1)

    def _wrap_loss_and_grads(self, original):
        probe = self

        def loss_and_grads(model, batch):
            if probe._step_span is None:
                probe._begin_step()
            if probe.tracer is not None:
                probe.labels.register(model)
            loss, grads = original(model, batch)
            probe.model = model
            probe.sample_batch = batch
            probe.losses.append(loss)
            probe.batch_sizes.append(len(batch[0]) if isinstance(batch, tuple) else len(batch))
            return loss, grads

        return loss_and_grads

    def _wrap_adam(self, original):
        probe = self

        def adam_step(params, grads, state):
            out = original(params, grads, state)
            now = perf_counter()
            probe.step_traced.append(probe.tracer is not None and len(probe.step_ends) % 2 == 1)
            probe.step_ends.append(now)
            if probe._step_span is not None:
                probe._end(probe._step_span)
                probe._step_span = None
            if probe.deadline is not None and now >= probe.deadline:
                raise Deadline
            probe._begin_step()
            return out

        return adam_step

    # -- maps -----------------------------------------------------------

    def _map_wrapper(self, kind: str):
        return lambda original: self._wrap_error_volume(kind, original)

    def _wrap_error_volume(self, kind: str, original):
        probe = self

        def error_volume(model, volume, mask, *args, **kwargs):
            key = (probe.stage, kind)
            position = probe._map_counts.get(key, 0)
            probe._map_counts[key] = position + 1
            traced = probe.tracer is not None and position % 2 == 1
            idx = None
            if probe.tracer is not None:
                probe.labels.register(model)
                idx = probe._begin(f"anomaly.error_volume_{kind}", traced)
            t0 = perf_counter()
            try:
                emap = original(model, volume, mask, *args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                if idx is not None:
                    probe._end(idx)
            data, cov = emap.data, emap.coverage
            valid = bool(np.isfinite(data).all() and (data >= 0).all()
                         and not np.where(cov, 0, data).any())
            probe.maps.append({
                "kind": kind, "subject": emap.subject_id, "stage": probe.stage,
                "seconds": seconds, "covered": int(np.count_nonzero(cov)), "valid": valid,
                "traced": traced,
            })
            return emap

        return error_volume

    def _wrap_threshold(self, original):
        probe = self

        def abnormality_threshold(control_maps, q=0.98):
            maps = list(control_maps)
            threshold = original(maps, q=q)
            pool = np.concatenate([m.data[m.coverage] for m in maps])
            probe.pools.append((pool, threshold))
            return threshold

        return abnormality_threshold

    def _wrap_score_table(self, original):
        probe = self

        def build_score_table(bmaps, metas, atlases):
            table = original(bmaps, metas, atlases)
            probe.tables.append(table)
            return table

        return build_score_table


# ---------------------------------------------------------------------------
# tracing: layer spans and public-function spans
# ---------------------------------------------------------------------------


class LayerLabels:
    """Maps layer objects to report names such as nn.ae.enc1 or
    nn.sae.maxpool.  Convs are numbered per encoder/decoder; a conv that only
    shares its weight array with a registered one (the center-pixel decoder
    builds such temporaries) takes that conv's name.  Registered objects are
    kept referenced so their ids stay unique."""

    def __init__(self) -> None:
        self._by_id: dict[int, tuple[str, object]] = {}

    def register(self, model) -> None:
        from anomvox.nn import BatchNorm2D, Conv2D, ConvTranspose2D, MaxPool2D, Upsample2D

        if id(model) in self._by_id:
            return
        self._by_id[id(model)] = ("model", model)
        prefix = f"nn.{model.kind}"
        for part, seq in (("enc", model.encoder), ("dec", model.decoder)):
            n = 0
            for layer in seq.layers:
                if isinstance(layer, (Conv2D, ConvTranspose2D)):
                    n += 1
                    label = f"{prefix}.{part}{n}"
                    self._by_id[id(layer.W)] = (label, layer.W)
                elif isinstance(layer, BatchNorm2D):
                    label = f"{prefix}.batchnorm"
                elif isinstance(layer, MaxPool2D):
                    label = f"{prefix}.maxpool"
                elif isinstance(layer, Upsample2D):
                    label = f"{prefix}.upsample"
                else:
                    label = f"{prefix}.pointwise"
                self._by_id[id(layer)] = (label, layer)

    def __call__(self, layer) -> str:
        hit = self._by_id.get(id(layer)) or self._by_id.get(id(getattr(layer, "W", None)))
        return hit[0] if hit else "nn.other"


def instrument_tracing(patcher: Patcher, tracer, labels: LayerLabels) -> None:
    from anomvox import anomaly, evaluation, models, nn, pipeline, report, sampling, volume

    conv_kinds = {nn.Conv2D: "conv", nn.ConvTranspose2D: "conv_transpose"}

    def layer_method(direction, conv_kind):
        def make(original):
            def call(layer, arg, *rest):
                if not tracer.enabled:
                    return original(layer, arg, *rest)
                idx = tracer.begin(f"{labels(layer)}.{direction}")
                try:
                    out = original(layer, arg, *rest)
                finally:
                    tracer.end(idx)
                if conv_kind:
                    x, y = (arg, out) if direction == "fwd" else (out, arg)
                    cost = conv_cost(conv_kind, x.shape[0], x.shape[1], y.shape[1],
                                     layer.kernel, x.shape[2:], y.shape[2:], x.itemsize)
                    tracer.notes[idx] = {"flop": cost[f"{direction}_flop"],
                                         "bytes": cost[f"{direction}_bytes"]}
                return out

            return call

        return make

    for cls in (nn.Conv2D, nn.ConvTranspose2D, nn.BatchNorm2D, nn.MaxPool2D,
                nn.Upsample2D, nn.ReLU, nn.Sigmoid):
        patcher.method(cls, "forward", layer_method("fwd", conv_kinds.get(cls)))
        patcher.method(cls, "backward", layer_method("bwd", conv_kinds.get(cls)))

    def span(name):
        return lambda original: tracer.wrap(name, original)

    patcher.function(models, "adam_step", span("nn.adam.step"))
    patcher.function(models, "ae_loss_grad", span("models.loss"))
    patcher.function(models, "sae_loss_grad", span("models.loss"))
    patcher.method(models.SAEModel, "slice_center_latents", span("models.sae.slice_center_latents"))
    patcher.method(models.SAEModel, "decode_center_values", span("models.sae.decode_center_values"))
    patcher.method(models.AEModel, "reconstruct", span("models.ae.reconstruct"))
    patcher.function(sampling, "extract_patches", span("sampling.extract_patches"))

    def build_pairs(original):
        def call(*args, **kwargs):
            release_free_heap()
            before = current_rss_mb()
            idx = tracer.begin("sampling.build_pairs")
            try:
                pairs = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.count("sampling.pairs_rss_mb", current_rss_mb() - before)
            return pairs

        return call

    patcher.function(sampling, "build_similar_pairs", build_pairs)
    patcher.function(anomaly, "abnormality_threshold", span("anomaly.threshold"))
    patcher.function(anomaly, "binarize", span("anomaly.binarize"))
    patcher.function(volume, "load_mvol", span("volume.load_mvol"))

    def save_mvol(original):
        def call(vol, path):
            idx = tracer.begin("volume.save_mvol")
            try:
                original(vol, path)
            finally:
                tracer.end(idx)
            tracer.count("volume.bytes_written", os.path.getsize(path))

        return call

    patcher.function(volume, "save_mvol", save_mvol)
    patcher.function(evaluation, "build_score_table", span("evaluation.score_table"))
    patcher.function(evaluation, "evaluate_split", span("evaluation.roc"))
    patcher.function(report, "write_report", span("report.write"))
    for stage in ("train", "threshold", "infer", "score", "evaluate", "report"):
        patcher.function(pipeline, f"stage_{stage}", span(f"pipeline.stage_{stage}"))


def instrument_setup(patcher: Patcher, tracer) -> None:
    """Spans for the set-up layers only: phantom synthesis and cohort loading."""
    from anomvox import phantom, pipeline

    patcher.function(phantom, "synth_cohort", lambda f: tracer.wrap("phantom.synth", f))
    patcher.function(pipeline, "load_cohort", lambda f: tracer.wrap("pipeline.load_cohort", f))

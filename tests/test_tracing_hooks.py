"""The benchmark's traced run (perfbench/) wraps layer and model methods
through cls.__dict__, so each traced method has to stay defined in its own
class body.  Installing, exercising and removing the hooks here catches a
traced method moved into a base class, or a conv kernel that calls another
traced layer, without a benchmark run."""

from pathlib import Path

import numpy as np
import pytest

from anomvox import nn
from anomvox.models import AEModel, SAEModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_METHODS = [
    (cls, name)
    for cls in (nn.Conv2D, nn.ConvTranspose2D, nn.BatchNorm2D, nn.MaxPool2D,
                nn.Upsample2D, nn.ReLU, nn.Sigmoid)
    for name in ("forward", "backward")
] + [
    (AEModel, "reconstruct"),
    (AEModel, "loss_and_grads"),
    (SAEModel, "loss_and_grads"),
    (SAEModel, "slice_center_latents"),
    (SAEModel, "decode_center_values"),
]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import spans

    return probes, spans


def test_hooks_trace_every_layer_and_restore(bench):
    probes, spans = bench
    originals = {(cls, name): cls.__dict__[name] for cls, name in TRACED_METHODS}
    tracer = spans.Tracer()
    labels = probes.LayerLabels()
    patcher = probes.Patcher()
    rng = np.random.default_rng(0)
    try:
        probes.Probe().install(patcher)
        probes.instrument_tracing(patcher, tracer, labels)
        ae, sae = AEModel((16, 16)), SAEModel()
        labels.register(ae)
        labels.register(sae)
        ae.loss_and_grads(rng.random((2, 2, 16, 16), dtype=np.float32))
        ae.reconstruct(rng.random((1, 2, 16, 16), dtype=np.float32))
        pair = rng.random((2, 2, 2, 15, 15), dtype=np.float32)
        before = len(tracer.spans)
        sae.loss_and_grads((pair[0], pair[1]))
        sae_step = {span[0] for span in tracer.spans[before:]}
        z = sae.slice_center_latents(rng.random((2, 1, 18, 18), dtype=np.float32), np.array([[0, 8, 9]]))
        sae.decode_center_values(z)
    finally:
        patcher.restore()

    assert {(cls, name): cls.__dict__[name] for cls, name in TRACED_METHODS} == originals
    names = {span[0] for span in tracer.spans}
    for part in ("enc", "dec"):
        for i in (1, 5):
            assert {f"nn.ae.{part}{i}.fwd", f"nn.ae.{part}{i}.bwd"} <= names
    assert {"nn.sae.dec4.fwd", "nn.sae.maxpool.bwd",
            "nn.ae.batchnorm.bwd", "nn.ae.pointwise.fwd", "models.ae.reconstruct",
            "models.sae.slice_center_latents", "models.sae.decode_center_values"} <= names
    assert "nn.other.fwd" not in names
    # The decoder's upsample runs inside dec3's forward and backward, folded
    # into its kernel, so it has no spans of its own.
    assert {"nn.sae.dec3.fwd", "nn.sae.dec3.bwd"} <= sae_step
    assert not [name for name in names if name.startswith("nn.sae.upsample")]
    # The center decode gathers its conv matrices from the weights and runs
    # no conv layer, so its only layer spans are its ReLUs' and sigmoid's.
    decode = next(i for i, span in enumerate(tracer.spans) if span[0] == "models.sae.decode_center_values")
    inside = []
    for name, _, _, parent, _ in tracer.spans:
        while parent > decode:
            parent = tracer.spans[parent][3]
        if name.startswith("nn.") and parent == decode:
            inside.append(name)
    assert {name.rsplit(".", 1)[0] for name in inside} == {"nn.sae.pointwise"}
    assert not [name for name in inside if name.startswith("nn.sae.dec")]
    # Layer spans never nest: a kernel that called another traced layer
    # would count its time twice.
    for name, _, _, parent, _ in tracer.spans:
        if name.startswith("nn.") and parent >= 0:
            assert not tracer.spans[parent][0].startswith(("nn.ae.", "nn.sae.")), name

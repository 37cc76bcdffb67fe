"""Slice auto-encoder, patch siamese auto-encoder, their losses and trainers.

The slice model (AE) is five stride-2 convolutions from 2 input channels up a
doubling ladder to 256 bottleneck channels, mirrored by five transposed
convolutions; batch normalization and ReLU follow every convolution except the
sigmoid output.  Transposed-conv output paddings are solved against the
recorded encoder sizes so odd input extents round-trip exactly.

The patch model (SAE) is a single shared-parameter branch applied to both
sides of a pair: 3 valid convolutions with one maxpool give a (16, 2, 2)
latent from a (2, 15, 15) patch, and 4 full convolutions with one upsample
reconstruct the patch.  The pair loss adds per-patch mean squared error and
subtracts alpha times the cosine similarity of the two latents, so similar
pairs are pulled together in latent space while reconstruction keeps the map
from collapsing.

Training is plain mini-batch Adam with a seeded shuffle; with a fixed seed a
run is bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nn import (
    AdamState,
    Composite,
    LayerSpec,
    Sequential,
    adam_step,
    chain_shapes,
    load_checkpoint,
    save_checkpoint,
)

AE_CHANNEL_LADDER = (2, 16, 32, 64, 128, 256)
SAE_PATCH_SIZE = 15
SAE_CHANNELS = 16


class ModelError(Exception):
    """Architecture misuse (wrong input shape, malformed checkpoint kind)."""


class TrainingDivergedError(Exception):
    """A batch produced a non-finite loss; message carries epoch and batch id."""


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    alpha: float = 0.005
    seed: int = 0
    checkpoint_every: int = 0


def ae_train_defaults(seed: int = 0) -> TrainConfig:
    return TrainConfig(epochs=160, batch_size=40, learning_rate=1e-3, seed=seed)


def sae_train_defaults(seed: int = 0) -> TrainConfig:
    return TrainConfig(epochs=30, batch_size=225, learning_rate=1e-3, alpha=0.005, seed=seed)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def ae_loss(x: np.ndarray, xhat: np.ndarray) -> float:
    """Mean over the batch of the per-sample L1 reconstruction error."""
    return ae_loss_grad(x, xhat)[0]


def ae_loss_grad(x: np.ndarray, xhat: np.ndarray) -> tuple[float, np.ndarray]:
    if x.shape != xhat.shape:
        raise ModelError(f"loss shapes differ: {x.shape} vs {xhat.shape}")
    b = x.shape[0]
    diff = xhat - x
    loss = float(np.abs(diff).sum() / b)
    return loss, np.sign(diff) / np.asarray(b, dtype=xhat.dtype)


def _pair_cosine(z1f: np.ndarray, z2f: np.ndarray):
    """Batched cosine with zero-latent guard; returns cos and both partials."""
    dots = (z1f * z2f).sum(axis=1)
    n1 = np.sqrt((z1f * z1f).sum(axis=1))
    n2 = np.sqrt((z2f * z2f).sum(axis=1))
    ok = (n1 > 0) & (n2 > 0)
    denom = np.where(ok, n1 * n2, 1.0)
    cos = np.where(ok, dots / denom, 0.0)
    okf = ok[:, None]
    d1 = np.where(okf, z2f / denom[:, None] - (cos / np.where(ok, n1 * n1, 1.0))[:, None] * z1f, 0.0)
    d2 = np.where(okf, z1f / denom[:, None] - (cos / np.where(ok, n2 * n2, 1.0))[:, None] * z2f, 0.0)
    return cos, d1, d2, bool((~ok).any())


def sae_loss(
    x1: np.ndarray,
    x2: np.ndarray,
    xhat1: np.ndarray,
    xhat2: np.ndarray,
    z1: np.ndarray,
    z2: np.ndarray,
    alpha: float,
) -> float:
    """Pair loss: per-patch MSE of both reconstructions minus the scaled
    cosine similarity of the two latents, averaged over the batch.  A zero
    latent's cosine counts as 0."""
    return sae_loss_grad(x1, x2, xhat1, xhat2, z1, z2, alpha)[0]


def sae_loss_grad(x1, x2, xhat1, xhat2, z1, z2, alpha):
    """Loss plus gradients with respect to both reconstructions and latents."""
    for a, b in ((x1, xhat1), (x2, xhat2)):
        if a.shape != b.shape:
            raise ModelError(f"loss shapes differ: {a.shape} vs {b.shape}")
    bsz = x1.shape[0]
    n_el = x1[0].size
    d1 = xhat1 - x1
    d2 = xhat2 - x2
    mse1 = np.square(d1).reshape(bsz, -1).mean(axis=1)
    mse2 = np.square(d2).reshape(bsz, -1).mean(axis=1)
    z1f = z1.reshape(bsz, -1)
    z2f = z2.reshape(bsz, -1)
    cos, dc1, dc2, had_zero = _pair_cosine(z1f, z2f)
    loss = float(np.mean(mse1 + mse2 - alpha * cos))
    scale = 2.0 / (n_el * bsz)
    dxhat1 = (scale * d1).astype(xhat1.dtype)
    dxhat2 = (scale * d2).astype(xhat2.dtype)
    dz1 = (-(alpha / bsz) * dc1).reshape(z1.shape).astype(z1.dtype)
    dz2 = (-(alpha / bsz) * dc2).reshape(z2.shape).astype(z2.dtype)
    if had_zero:
        warnings.warn("zero latent in a pair batch; its cosine term contributed 0", RuntimeWarning)
    return loss, dxhat1, dxhat2, dz1, dz2


# ---------------------------------------------------------------------------
# architectures
# ---------------------------------------------------------------------------


def plan_ae_specs(
    input_hw: tuple[int, int], channels: tuple[int, ...] = AE_CHANNEL_LADDER
) -> tuple[list[LayerSpec], list[LayerSpec], tuple[int, int, int]]:
    """Encoder/decoder specs for a given slice size, plus the bottleneck shape.

    Decoder output paddings are solved so each transposed convolution lands
    exactly on the matching encoder size (0 for odd targets, 1 for even).
    """
    enc: list[LayerSpec] = []
    for cin, cout in zip(channels[:-1], channels[1:]):
        enc.append(
            LayerSpec(
                "conv",
                in_channels=cin,
                out_channels=cout,
                kernel=(3, 3),
                stride=(2, 2),
                padding=(1, 1),
                bias=False,
            )
        )
        enc.append(LayerSpec("batchnorm", in_channels=cout))
        enc.append(LayerSpec("relu"))

    shapes = chain_shapes(enc, (channels[0], *input_hw))
    bottleneck = shapes[-1]
    # Spatial size before each encoder stage, outermost first.
    stage_sizes = [input_hw] + [s[1:] for s in shapes[2::3]]

    dec: list[LayerSpec] = []
    rev = tuple(reversed(channels))
    for i, (cin, cout) in enumerate(zip(rev[:-1], rev[1:])):
        src = stage_sizes[len(stage_sizes) - 1 - i]
        tgt = stage_sizes[len(stage_sizes) - 2 - i]
        out_pad = (tgt[0] - (2 * src[0] - 1), tgt[1] - (2 * src[1] - 1))
        last = i == len(rev) - 2
        dec.append(
            LayerSpec(
                "conv_transpose",
                in_channels=cin,
                out_channels=cout,
                kernel=(3, 3),
                stride=(2, 2),
                padding=(1, 1),
                output_padding=out_pad,
                init="glorot" if last else "he",
                bias=last,
            )
        )
        if last:
            dec.append(LayerSpec("sigmoid"))
        else:
            dec.append(LayerSpec("batchnorm", in_channels=cout))
            dec.append(LayerSpec("relu"))
    return enc, dec, bottleneck


def sae_specs(channels: int = SAE_CHANNELS) -> tuple[list[LayerSpec], list[LayerSpec]]:
    """Patch branch: valid-padding encoder with one maxpool, full-padding
    decoder with one upsample and a 2x2 sigmoid output head."""
    c = channels
    enc = [
        LayerSpec("conv", in_channels=2, out_channels=c, kernel=(3, 3), padding="valid"),
        LayerSpec("relu"),
        LayerSpec("maxpool", factor=2),
        LayerSpec("conv", in_channels=c, out_channels=c, kernel=(3, 3), padding="valid"),
        LayerSpec("relu"),
        LayerSpec("conv", in_channels=c, out_channels=c, kernel=(3, 3), padding="valid"),
        LayerSpec("relu"),
    ]
    dec = [
        LayerSpec("conv", in_channels=c, out_channels=c, kernel=(3, 3), padding="full"),
        LayerSpec("relu"),
        LayerSpec("conv", in_channels=c, out_channels=c, kernel=(3, 3), padding="full"),
        LayerSpec("relu"),
        LayerSpec("upsample", factor=2),
        LayerSpec("conv", in_channels=c, out_channels=c, kernel=(3, 3), padding="full"),
        LayerSpec("relu"),
        LayerSpec("conv", in_channels=c, out_channels=2, kernel=(2, 2), padding="full", init="glorot"),
        LayerSpec("sigmoid"),
    ]
    return enc, dec


class _EncoderDecoder(Composite):
    """What the AE and the SAE share: one encoder and one decoder Sequential,
    the parts of its array protocol under the "enc."/"dec." key prefixes (the
    checkpoint names), and an input check against input_shape (C, H, W).
    """

    kind: str
    input_shape: tuple[int, int, int]
    encoder: Sequential
    decoder: Sequential
    checkpoint_id: str | None = None

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            c, h, w = self.input_shape
            raise ModelError(f"expected input (B, {c}, {h}, {w}), got {x.shape}")

    def encode(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._check_input(x)
        return self.encoder.forward(x, train)

    def _parts(self) -> tuple[tuple[str, Sequential], ...]:
        return (("enc.", self.encoder), ("dec.", self.decoder))

    @property
    def provenance(self) -> str:
        return f"{self.kind}:{self.checkpoint_id or 'unsaved'}"


class AEModel(_EncoderDecoder):
    """Slice auto-encoder; built for one fixed slice size."""

    kind = "ae"

    def __init__(
        self,
        input_hw: tuple[int, int],
        channels: tuple[int, ...] = AE_CHANNEL_LADDER,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.input_hw = tuple(int(v) for v in input_hw)
        self.channels = tuple(channels)
        enc, dec, bottleneck = plan_ae_specs(self.input_hw, self.channels)
        self.bottleneck_shape = bottleneck
        rng = np.random.default_rng(seed)
        self.encoder = Sequential(enc, rng, dtype)
        self.decoder = Sequential(dec, rng, dtype)
        self.input_shape = (self.channels[0], *self.input_hw)

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._check_input(x)
        return self.decoder.forward(self.encoder.forward(x, train), train)

    @property
    def arch(self) -> dict:
        return {"input_hw": list(self.input_hw), "channels": list(self.channels)}

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False)

    def loss_and_grads(self, x: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        xhat = self.forward(x, train=True)
        loss, dxhat = ae_loss_grad(x, xhat)
        self.encoder.backward(self.decoder.backward(dxhat))
        return loss, self.grads()

    def loss_only(self, x: np.ndarray) -> float:
        return ae_loss(x, self.forward(x, train=True))


class SAEModel(_EncoderDecoder):
    """Siamese patch auto-encoder; both branches are the same parameter set.

    There is exactly one encoder and one decoder object; pair batches are
    concatenated and pushed through them once, which makes the weight sharing
    structural rather than a synchronized copy.
    """

    kind = "sae"

    def __init__(
        self,
        patch_size: int = SAE_PATCH_SIZE,
        channels: int = SAE_CHANNELS,
        alpha: float = 0.005,
        seed: int = 0,
        dtype=np.float32,
    ):
        if patch_size != SAE_PATCH_SIZE:
            # The valid/pool/full geometry below reconstructs exactly 15x15.
            raise ModelError(f"patch size must be {SAE_PATCH_SIZE}, got {patch_size}")
        self.patch_size = patch_size
        self.channels = channels
        self.alpha = alpha
        enc, dec = sae_specs(channels)
        rng = np.random.default_rng(seed)
        self.encoder = Sequential(enc, rng, dtype)
        self.decoder = Sequential(dec, rng, dtype)
        self.input_shape = (2, patch_size, patch_size)
        self.latent_shape = chain_shapes(enc, self.input_shape)[-1]

    @property
    def arch(self) -> dict:
        return {"patch_size": self.patch_size, "channels": self.channels, "alpha": self.alpha}

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        return self.decoder.forward(self.encoder.forward(x, False), False)

    def _train_loss(self, batch):
        """One training forward of both sides of a pair batch through the
        shared branch; returns sae_loss_grad's loss and gradients."""
        x1, x2 = batch
        self._check_input(x1)
        self._check_input(x2)
        b = x1.shape[0]
        z = self.encoder.forward(np.concatenate([x1, x2], axis=0), train=True)
        xhat = self.decoder.forward(z, train=True)
        return sae_loss_grad(x1, x2, xhat[:b], xhat[b:], z[:b], z[b:], self.alpha)

    def loss_and_grads(self, batch) -> tuple[float, dict[str, np.ndarray]]:
        loss, dxh1, dxh2, dz1, dz2 = self._train_loss(batch)
        dz = self.decoder.backward(np.concatenate([dxh1, dxh2], axis=0))
        dz += np.concatenate([dz1, dz2], axis=0)
        self.encoder.backward(dz)
        return loss, self.grads()

    def loss_only(self, batch) -> float:
        return self._train_loss(batch)[0]

    # -- dense voxel-wise application ------------------------------------
    #
    # Center-mode error maps evaluate the branch at every eligible voxel of a
    # slice.  Both shortcuts are derived from the layer specs: the encoder runs
    # once, densely, on the slice's pooling-phase crops (pooling windows align
    # with the patch origin), and the decoder runs through forward_window on
    # the center pixel only.  Tests pin both to encode() and reconstruct().

    def slice_center_latents(self, image: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Latents of the patches centered at `centers` ((n, 2) of (y, x))
        within one (2, H, W) slice; equals encode() on the gathered patches."""
        f = math.prod(s.factor for s in self.encoder.specs if s.kind == "maxpool")
        _, h, w = image.shape
        crops = [image[:, p : p + h - f + 1, q : q + w - f + 1] for p, q in np.ndindex(f, f)]
        z = self.encoder.forward(np.stack(crops).astype(self.encoder.dtype), False)
        windows = sliding_window_view(z, self.latent_shape[1:], axis=(2, 3))
        r, c = (np.asarray(centers) - self.patch_size // 2).T  # patch origins
        return windows[(r % f) * f + c % f, :, r // f, c // f]

    def decode_center_values(self, z: np.ndarray) -> np.ndarray:
        """Center pixel of the decoded patch for a latent batch: reconstruct()[:, :, h, h]
        for h = patch_size // 2, exactly for two or more latents and within a few
        ulp for one (BLAS rounds a one-column product differently)."""
        h = self.patch_size // 2
        return self.decoder.forward_window(z, (h, h + 1), (h, h + 1))[:, :, 0, 0]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _run_epochs(model, data, config, checkpoint_dir=None):
    """Mini-batch Adam over `data`, any sized sequence whose data[idx] is the
    model's batch for the index array idx."""
    state = AdamState(learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)
    curve: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(data))
        total = 0.0
        for bi, start in enumerate(range(0, len(data), config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grads = model.loss_and_grads(data[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, batch {bi}")
            adam_step(model.params(), grads, state)
            total += loss * len(idx)
        curve.append(EpochStats(epoch, total / len(data)))
        if checkpoint_dir and config.checkpoint_every and epoch % config.checkpoint_every == 0:
            save_model(model, Path(checkpoint_dir) / f"{model.kind}_epoch{epoch:04d}.anom")
    return curve


def train_ae(
    slices: np.ndarray,
    config: TrainConfig,
    model: AEModel | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[AEModel, list[EpochStats]]:
    """Train the slice auto-encoder on (N, C, H, W) slices; returns the model
    and the loss curve."""
    if len(slices) == 0:
        raise ModelError("empty slice dataset")
    if model is None:
        model = AEModel(slices.shape[2:], seed=config.seed)
    return model, _run_epochs(model, slices, config, checkpoint_dir)


def train_sae(
    pairs,
    config: TrainConfig,
    model: SAEModel | None = None,
    checkpoint_dir: str | Path | None = None,
) -> tuple[SAEModel, list[EpochStats]]:
    """Train the siamese patch auto-encoder on similar pairs: a sized
    sequence whose pairs[idx] is the (left, right) batch, such as
    sampling.PairSet."""
    if len(pairs) == 0:
        raise ModelError("empty pair dataset")
    if model is None:
        model = SAEModel(alpha=config.alpha, seed=config.seed)
    model.alpha = config.alpha
    return model, _run_epochs(model, pairs, config, checkpoint_dir)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


_MODELS = {"ae": AEModel, "sae": SAEModel}


def save_model(model: AEModel | SAEModel, path: str | Path, meta: dict | None = None) -> str:
    """Write the model's parameters and state under its kind and current
    architecture; returns the checkpoint id, which the model also records."""
    arrays = {**model.params(), **model.state()}
    model.checkpoint_id = save_checkpoint(path, model.kind, model.arch, arrays, meta)
    return model.checkpoint_id


def load_model(path: str | Path, kind: str) -> AEModel | SAEModel:
    """Rebuild a model of the given kind from its checkpoint."""
    ckpt = load_checkpoint(path)
    if ckpt.kind != kind:
        raise ModelError(f"{path}: expected an {kind!r} checkpoint, found {ckpt.kind!r}")
    model = _MODELS[kind](**ckpt.arch)
    model.set_params({k: ckpt.arrays[k] for k in model.params()})
    model.set_state({k: ckpt.arrays[k] for k in model.state()})
    model.checkpoint_id = ckpt.checkpoint_id
    return model


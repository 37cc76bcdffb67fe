"""Slice auto-encoder, patch siamese auto-encoder, their losses and training loop.

Both models list their layers, and each is one nn.Sequential encoder and
one decoder.  The slice model (AE) is five stride-2 convolutions from 2 input
channels up a doubling ladder to 256 bottleneck channels, mirrored by five
transposed convolutions; every convolution except the sigmoid output is
followed by batch normalization and a ReLU, which run as one layer
(nn.layers).  Transposed-conv output paddings are solved against the
encoder's shapes so odd input extents round-trip exactly.

The patch model (SAE) is a single shared-parameter branch applied to both
sides of a pair: 3 valid convolutions with one maxpool give a (16, 2, 2)
latent from a (2, 15, 15) patch, and 4 full convolutions, one of them on the
upsampled map, reconstruct the patch.  That one (dec3) is built as one
upsampling conv, which runs on the 6x6 map as four 2x2 phase kernels folded
from its 3x3 one (nn.layers); its checkpoint keys are those of a 3x3 conv
after an upsample (nn.Sequential).  In training, the four convolutions on
the 2x2 to 6x6 maps (the last two of the encoder, the first two of the
decoder) run as one dense matrix each (nn.layers); inference runs all seven
in the tap form.  The pair loss
adds per-patch mean squared error and subtracts alpha times the cosine
similarity of the two latents, so similar pairs are pulled together in
latent space while reconstruction keeps the map from collapsing.

An SAE training step is synchronous data-parallel SGD on this host's
cores: a batch of n >= 2 pairs is cut into two fixed halves, pairs
[0, ceil(n/2)) and the rest, and the loss and the gradients are the halves'
pair-count-weighted mean, first half first; a one-pair batch runs whole.
Inside train, the first half runs on the calling thread while the second
runs in one worker process forked for the training run, a copy of the model
that is sent the current parameters and the half on each step: the
data-parallel scheme of Krizhevsky ("One weird trick for parallelizing
convolutional neural networks", 2014), with one process per replica, as
PyTorch's DDP runs them (Li et al., "PyTorch Distributed: Experiences on
Accelerating Data Parallel Training", VLDB 2020), because two threads of one
interpreter share its lock.  Outside train no worker is open, and the step
runs the second half in-line on the model, with the same bytes.  OpenBLAS
is held at one thread in both processes, so the gradients depend on the
batch alone, not on the core or BLAS thread count (where numpy's OpenBLAS
exports no thread control, a warning says that they do); they differ from
the whole-batch products at float rounding.  Timed on a 2-core OpenBLAS
host, two halves took 0.55-0.58x the time of one whole batch at 225 pairs
and 1.05-1.48x at 2 pairs; no shipped config or workload sends a batch of
fewer than 75 pairs.  The AE step stays one batch, because batch
normalization needs the whole batch's statistics, and the AE never gets a
worker.  On glibc the first SAE step of a process, and the worker, fix
malloc's mmap and trim thresholds for the process, so that the step's freed
temporaries are reused instead of faulted in again every step
(_keep_freed_memory).

Both train through one loop, plain mini-batch Adam with a seeded shuffle; with
a fixed seed a run is bit-reproducible.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from .nn import (
    AdamState,
    BatchNorm2D,
    Composite,
    Conv2D,
    ConvTranspose2D,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    adam_step,
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
    seed: int = 0


@dataclass
class SAETrainConfig(TrainConfig):
    """The SAE's recipe also weighs the pair loss's cosine term."""

    alpha: float = 0.005


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def ae_loss_grad(x: np.ndarray, xhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over the batch of the per-sample L1 reconstruction error, and
    its gradient with respect to xhat."""
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


def sae_loss_grad(x1, x2, xhat1, xhat2, z1, z2, alpha):
    """Pair loss: per-patch MSE of both reconstructions minus the scaled
    cosine similarity of the two latents, averaged over the batch, plus its
    gradients with respect to both reconstructions and latents.  A zero
    latent's cosine counts as 0."""
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
        self.input_shape = (self.channels[0], *self.input_hw)
        rng = np.random.default_rng(seed)
        stages = list(zip(self.channels[:-1], self.channels[1:]))
        enc = []  # the convs have no bias, which the batch norm after each would cancel
        for a, b in stages:
            enc += [Conv2D(a, b, (3, 3), (2, 2), (1, 1), False, dtype), BatchNorm2D(b, dtype, relu=True)]
        self.encoder = Sequential(enc, rng)
        shapes = self.encoder.shapes(self.input_shape)
        self.bottleneck_shape = shapes[-1]
        # Each transposed conv lands on the size before its encoder stage: its
        # output padding is 0 where that size is odd and 1 where it is even.
        dec = []
        for i in reversed(range(len(stages))):
            (a, b), src, tgt = stages[i], shapes[2 * i + 2][1:], shapes[2 * i][1:]
            out_pad = tuple(t - (2 * n - 1) for n, t in zip(src, tgt))
            dec.append(ConvTranspose2D(b, a, (3, 3), (2, 2), (1, 1), out_pad, i == 0, dtype))
            dec.append(Sigmoid() if i == 0 else BatchNorm2D(a, dtype, relu=True))
        self.decoder = Sequential(dec, rng)

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
        self.encoder.backward(self.decoder.backward(dxhat), input_grad=False)
        return loss, self.grads()


class SAEModel(_EncoderDecoder):
    """Siamese patch auto-encoder; both branches are the same parameter set.

    There is one parameter set; the two sides of each half of a pair batch
    are concatenated and pushed through one branch once, which makes the
    weight sharing structural rather than a synchronized copy.  In training,
    the worker process's copy of the model is sent this parameter set and
    the second half on every step.
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

        def conv(cin, cout, k=3, pad=0, upsample=1):
            return Conv2D(cin, cout, (k, k), (1, 1), (pad, pad), True, dtype, upsample)

        c, rng = channels, np.random.default_rng(seed)
        # Valid convs and one max-pool: 15x15 -> 13x13 -> 6x6 -> 4x4 -> 2x2.
        self.encoder = Sequential([conv(2, c), ReLU(), MaxPool2D(2), conv(c, c), ReLU(), conv(c, c), ReLU()], rng)
        # Full convs back up, 2x2 -> 4x4 -> 6x6 -> 14x14 -> 15x15; the third
        # (dec3) convolves the 6x6 map upsampled by 2, and a 2x2 conv with a
        # sigmoid is the output head.
        up = conv(c, c, pad=2, upsample=2)
        dec = [conv(c, c, pad=2), ReLU(), conv(c, c, pad=2), ReLU(), up, ReLU(), conv(c, 2, k=2, pad=1), Sigmoid()]
        self.decoder = Sequential(dec, rng)
        self.input_shape = (2, patch_size, patch_size)
        self.latent_shape = self.encoder.shapes(self.input_shape)[-1]

    @property
    def arch(self) -> dict:
        return {"patch_size": self.patch_size, "channels": self.channels, "alpha": self.alpha}

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        return self.decoder.forward(self.encoder.forward(x, False), False)

    # The training run's worker process (_shard_worker), or None.
    _worker: _ShardWorker | None = None

    def loss_and_grads(self, batch) -> tuple[float, dict[str, np.ndarray]]:
        """The loss and gradients of a pair batch (x1, x2), with OpenBLAS
        held at one thread.  A batch of n >= 2 pairs runs as two halves,
        pairs [0, ceil(n/2)) and the rest.  The first runs on this thread;
        the second runs meanwhile in the training run's worker process where
        one is open, and otherwise in-line on this model before it.  Their
        pair-count-weighted mean lands in this model's gradients.  A half's
        error is raised here, once the worker has answered."""
        x1, x2 = batch
        self._check_input(x1)
        self._check_input(x2)
        n = len(x1)
        _keep_freed_memory()
        with _one_blas_thread():
            if n < 2:
                return self._shard_step(x1, x2)
            h = -(-n // 2)
            worker = self._worker
            if worker is None:
                loss1, grads1 = self._shard_step(x1[h:], x2[h:])
                grads1 = {k: g.copy() for k, g in grads1.items()}
            else:
                worker.send(self.params(), (x1[h:], x2[h:]))
            try:
                loss0, grads = self._shard_step(x1[:h], x2[:h])
            finally:
                if worker is not None:
                    loss1, grads1 = worker.receive()
        w0, w1 = h / n, (n - h) / n
        for key, g in grads.items():
            g *= w0
            g += w1 * grads1[key]
        return w0 * loss0 + w1 * loss1, grads

    def _shard_step(self, x1, x2) -> tuple[float, dict[str, np.ndarray]]:
        """Both sides of the pairs run through the shared branch as one
        concatenated batch, forward and back; returns the mean loss over
        these pairs and this model's gradients of it."""
        b = x1.shape[0]
        z = self.encoder.forward(np.concatenate([x1, x2], axis=0), train=True)
        xhat = self.decoder.forward(z, train=True)
        loss, dxh1, dxh2, dz1, dz2 = sae_loss_grad(x1, x2, xhat[:b], xhat[b:], z[:b], z[b:], self.alpha)
        dz = self.decoder.backward(np.concatenate([dxh1, dxh2], axis=0))
        dz += np.concatenate([dz1, dz2], axis=0)
        self.encoder.backward(dz, input_grad=False)
        return loss, self.grads()

    # -- dense voxel-wise application ------------------------------------
    #
    # Center-mode error maps evaluate the branch at every eligible voxel of a
    # volume.  Both shortcuts are derived from the layers: the encoder runs
    # densely on one box per slab of slices that the patches span, whose
    # corner keeps each origin's pooling phase (pooling windows align with
    # the patch origin).  The layers before the max-pool run once on the box;
    # the max-pool and the layers after it run once per pooling phase, on
    # that phase's crop of the activation, which a valid conv makes exact:
    # the max-pooling fragments of Giusti et al. ("Fast image scanning with
    # deep max-pooling convolutional neural networks", 2013).  The decoder
    # runs on the center pixel's receptive field only, as one dense matrix
    # per conv (gathered from its weights, as the training dense form is)
    # chained through its ReLUs and sigmoid.
    # Tests pin both to encode() and reconstruct().

    # Slices encoded per pass of slice_center_latents, which bounds its
    # activations whatever the volume's depth.
    SLAB = 8

    def slice_center_latents(self, slices: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Latents of the patches centered at `centers` ((n, 3) of (z, y, x))
        in the (2, D, H, W) slice stack `slices`, in the order of `centers`;
        equals encode() on the gathered patches.  Only the slices with
        centers are encoded, SLAB at a time, each slab cut to the box that
        its patches span."""
        centers = self._check_centers(slices, centers)
        out = np.empty((len(centers), *self.latent_shape), self.encoder.dtype)
        flat_out = out.reshape(len(out), math.prod(self.latent_shape))
        pool = next(i for i, layer in enumerate(self.encoder.layers) if isinstance(layer, MaxPool2D))
        head, tail = self.encoder.layers[:pool], self.encoder.layers[pool:]
        f, p = tail[0].factor, self.patch_size
        zs, r, c = centers.T
        r, c = r - p // 2, c - p // 2  # patch origins
        order = np.argsort(zs, kind="stable")
        depths, starts = np.unique(zs[order], return_index=True)
        starts = [*starts, len(order)]
        for i in range(0, len(depths), self.SLAB):
            slab = depths[i : i + self.SLAB]
            idx = order[starts[i] : starts[i + len(slab)]]
            r0, c0 = r[idx].min() // f * f, c[idx].min() // f * f
            box = slices[:, slab, r0 : r[idx].max() + p, c0 : c[idx].max() + p]
            a = box.swapaxes(0, 1).astype(self.encoder.dtype, copy=False)
            for layer in head:
                a = layer.forward(a, False)
            s, rs, cs = np.searchsorted(slab, zs[idx]), r[idx] - r0, c[idx] - c0
            phase = rs % f * f + cs % f
            h, w = a.shape[2] - f + 1, a.shape[3] - f + 1
            for k, (pr, pc) in enumerate(np.ndindex(f, f)):
                on = phase == k
                if not on.any():
                    continue
                y = a[:, :, pr : pr + h, pc : pc + w]
                for layer in tail:
                    y = layer.forward(y, False)
                # Each latent is one window of y, gathered by flat index: its
                # corner's offset plus the window's offsets.
                y = np.ascontiguousarray(y)
                steps = np.array(y.strides) // y.itemsize
                window = np.indices(self.latent_shape).reshape(3, -1).T @ steps[1:]
                corner = s[on] * steps[0] + rs[on] // f * steps[2] + cs[on] // f * steps[3]
                flat_out[idx[on]] = y.ravel().take(corner[:, None] + window)
        return out

    def _check_centers(self, slices: np.ndarray, centers) -> np.ndarray:
        """centers as an (n, 3) int array, after checking that each one names
        a slice of `slices` and that its patch lies inside that slice."""
        if slices.ndim != 4 or slices.shape[0] != self.input_shape[0]:
            raise ModelError(f"expected slices ({self.input_shape[0]}, D, H, W), got {slices.shape}")
        centers = np.asarray(centers)
        if centers.ndim != 2 or centers.shape[1] != 3 or not np.issubdtype(centers.dtype, np.integer):
            raise ModelError(f"expected (n, 3) integer centers (z, y, x), got {centers.shape} {centers.dtype}")
        _, d, height, width = slices.shape
        h = self.patch_size // 2
        bad = (centers < (0, h, h)) | (centers >= (d, height - h, width - h))
        if bad.any():
            z, y, x = centers[np.flatnonzero(bad.any(axis=1))[0]]
            where = f"z outside [0, {d})" if not 0 <= z < d else f"its patch leaves the {height}x{width} slice"
            raise ModelError(f"center (z, y, x) = ({z}, {y}, {x}): {where}")
        return centers

    def decode_center_values(self, z: np.ndarray) -> np.ndarray:
        """Center pixel of the decoded patch for a latent batch,
        reconstruct()[:, :, h, h] for h = patch_size // 2.  The decoder's
        dense window (Sequential.dense_window) is built once per call, so
        pass many latents at once; float32 results differ from
        reconstruct()'s by summation order only, a few ulp."""
        h = self.patch_size // 2
        return self.decoder.dense_window(z.shape[1:], (h, h + 1), (h, h + 1))(z)[:, :, 0, 0]


# ---------------------------------------------------------------------------
# the SAE's worker process and BLAS threads
# ---------------------------------------------------------------------------


class _ShardWorker:
    """A forked copy of an SAE model that runs the second half of each
    training step (SAEModel.loss_and_grads) in a process of its own, so that
    it shares no interpreter lock with the first.  It is daemonic and
    closes its copy of this process's pipe end, so that it exits when this
    process closes the pipe or dies; a receive also watches the process, so
    a dead worker raises instead of hanging."""

    def __init__(self, model: SAEModel):
        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._process = ctx.Process(target=_serve_shards, args=(model, theirs, self._conn), daemon=True)
        self._process.start()
        theirs.close()

    def send(self, params: dict[str, np.ndarray], half) -> None:
        try:
            self._conn.send((params, half))
        except OSError as exc:
            raise self._dead() from exc

    def receive(self) -> tuple[float, dict[str, np.ndarray]]:
        """The loss and gradients of the half last sent; raises its error."""
        if self._conn not in wait([self._conn, self._process.sentinel]):
            raise self._dead()
        try:
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._dead() from exc
        if isinstance(reply, Exception):
            raise reply
        return reply

    def _dead(self) -> RuntimeError:
        self._process.join(timeout=1)
        return RuntimeError(
            f"SAE shard worker (pid {self._process.pid}) is gone, exit code {self._process.exitcode}"
        )

    def close(self) -> None:
        """Close the pipe, which ends the worker's loop, and reap it."""
        self._conn.close()
        self._process.join(timeout=10)
        if self._process.exitcode is None:
            self._process.kill()
            self._process.join()
        self._process.close()


def _serve_shards(model: SAEModel, conn, parents_end) -> None:
    """The worker's loop: take the parameters and the (x1, x2) half it is
    sent, and send back its _shard_step result (the pipe sends a copy of the
    gradients) or its error, until the pipe closes.  Ctrl-C is left to the
    training process, which then closes the pipe."""
    parents_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _keep_freed_memory()
    with _one_blas_thread():
        while True:
            try:
                params, half = conn.recv()
            except (EOFError, OSError):
                return
            try:
                model.set_params(params)
                reply = model._shard_step(*half)
            except Exception as exc:
                reply = exc
            try:
                conn.send(reply)
            except OSError:
                return


@contextmanager
def _shard_worker(model):
    """Give an SAE model a _ShardWorker for the block, and close it after,
    however the block ends.  The AE, and a host that cannot fork, train
    without one."""
    if not isinstance(model, SAEModel) or "fork" not in multiprocessing.get_all_start_methods():
        yield
        return
    worker = model._worker = _ShardWorker(model)
    try:
        yield
    finally:
        del model._worker
        worker.close()


@lru_cache(maxsize=1)
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS
    (numpy.libs), or None, with one warning, where there is none."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        try:
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    warnings.warn(
        "numpy's OpenBLAS thread control was not found: SAE gradients depend on the BLAS thread count",
        RuntimeWarning,
    )
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, and restore the count on exit."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# glibc's mallopt parameters, and the values _keep_freed_memory sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 128 << 20, 32 << 20


@lru_cache(maxsize=1)
def _keep_freed_memory() -> None:
    """Fix glibc malloc's thresholds for this process, once: blocks of up to
    32 MiB come from the heap, and up to 128 MiB of free heap top stays
    mapped.  By default both thresholds slide with the blocks freed, and the
    sharded step's few-MB temporaries were handed back to the kernel and
    faulted in again every step, 5,500 to 15,000 minor faults and 12-26 ms of
    system time per 225-pair step on a 2-core host, in a number that varied
    from one process to the next with how the two threads' frees had moved
    the thresholds.  With them fixed a step faults in next to no pages.  A
    no-op off glibc; the results do not depend on it."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def train(model, data, config: TrainConfig) -> list[EpochStats]:
    """Mini-batch Adam on `model` over `data`, any sized sequence whose
    data[idx] is the model's batch for the index array idx: (N, C, H, W)
    slices for the AE, a sampling.PairSet of similar pairs for the SAE.  The
    shuffle draws from config.seed + 1 (a model built for the run draws its
    weights from config.seed).  An SAE trains with one worker process, forked
    here and closed when this returns or raises.  Returns the loss curve;
    the caller saves the trained model."""
    if len(data) == 0:
        raise ModelError(f"empty {model.kind} training set")
    state = AdamState(learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)
    curve: list[EpochStats] = []
    with _shard_worker(model):
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
    return curve


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


"""Synthetic phantom cohort generator with voxel-level ground truth.

Stands in for restricted clinical data at desk scale.  Every subject shares a
smooth two-channel template (sum of Gaussian bumps inside an ellipsoidal brain
support) plus a subject-specific smooth low-amplitude perturbation and i.i.d.
Gaussian noise.  Patients additionally receive spherical intensity offsets of
magnitude delta at random in-brain centers; the offset is +delta on channel 0
and -delta on channel 1, mimicking opposite-signed diffusivity changes, and is
recorded per lesion in PhantomTruth.

Generation is a pure function of (spec, seed): the template and subject roster
come from the root seed, and each subject's random stream is derived as
seed + subject index, so a patient and its anomaly-free twin share identical
background fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_erosion

from .volume import SubjectMeta, Volume, VolumeError

# Brain support fills this fraction of each half-extent so the background
# border is never empty.
_SUPPORT_SCALE = 0.92

# Smallest in-support value on channel 0; keeps the foreground mask equal to
# the geometric support even under heavy noise or clipping.
_CHANNEL0_FLOOR = np.float32(1.0 / 1024.0)

# Per-channel template ranges, chosen so a +/-0.3 lesion offset rarely clips.
_TEMPLATE_RANGE = ((0.32, 0.62), (0.30, 0.60))

# The recipe every cohort shares: grid spacing, the template's and each
# subject's smooth structure, and the demographics the splits balance.
VOXEL_SIZE_MM = (1.5, 1.5, 1.5)
N_TEMPLATE_BLOBS = 12
PERTURBATION_AMPLITUDE = 0.02
N_PERTURBATION_BLOBS = 6
MEAN_AGE = 61.0
AGE_SD = 9.0
FEMALE_FRACTION = 0.45


class PhantomSpecError(VolumeError):
    """Invalid phantom specification."""


@dataclass(frozen=True)
class PhantomSpec:
    """Cohort recipe. anomaly_magnitude (delta) must lie in (0, 0.3]."""

    n_controls: int
    n_patients: int
    dims: tuple[int, int, int] = (48, 56, 48)
    anomaly_magnitude: float = 0.15
    lesion_radius: float = 4.0
    lesions_per_patient: int = 3
    noise_sigma: float = 0.02

    def __post_init__(self) -> None:
        if self.n_controls <= 0 or self.n_patients < 0:
            raise PhantomSpecError(
                f"need n_controls > 0 and n_patients >= 0, got "
                f"{self.n_controls}/{self.n_patients}"
            )
        if not (0.0 < self.anomaly_magnitude <= 0.3):
            raise PhantomSpecError(
                f"anomaly magnitude must be in (0, 0.3], got {self.anomaly_magnitude}"
            )
        if self.lesion_radius < 1.0:
            raise PhantomSpecError(f"lesion radius must be >= 1 voxel, got {self.lesion_radius}")
        if self.lesions_per_patient <= 0:
            raise PhantomSpecError("lesions_per_patient must be > 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise PhantomSpecError(f"noise sigma must be a finite number >= 0, got {self.noise_sigma}")
        if len(self.dims) != 3 or any(d < 8 for d in self.dims):
            raise PhantomSpecError(f"dims must be 3 axes of at least 8 voxels, got {self.dims}")
        # A ball of radius r is 2 * floor(r) + 1 voxels wide; `not <` also refuses NaN.
        if not self.lesion_radius < (min(self.dims) + 1) // 2:
            raise PhantomSpecError(
                f"a lesion of radius {self.lesion_radius} is wider than the phantom's "
                f"shortest axis ({min(self.dims)} voxels)"
            )


@dataclass(frozen=True, eq=False)
class PhantomTruth:
    """Ground-truth lesion record; empty mask and lists for controls."""

    subject_id: str
    anomaly_mask: np.ndarray
    anomaly_magnitudes: tuple[float, ...] = ()
    lesion_centers: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.anomaly_mask.dtype != bool or self.anomaly_mask.ndim != 3:
            raise VolumeError("anomaly_mask must be a 3-D boolean field")
        self.anomaly_mask.flags.writeable = False

    @property
    def is_patient(self) -> bool:
        return bool(self.anomaly_mask.any())


def ellipsoid_support(dims: tuple[int, int, int]) -> np.ndarray:
    """Boolean ellipsoid inscribed in the volume; the phantom brain support."""
    semi = [_SUPPORT_SCALE * (d - 1) / 2.0 for d in dims]
    center = [(d - 1) / 2.0 for d in dims]
    grids = np.ogrid[0 : dims[0], 0 : dims[1], 0 : dims[2]]
    q = sum(((g - c) / s) ** 2 for g, c, s in zip(grids, center, semi))
    return q <= 1.0


def _ball_offsets(radius: float) -> np.ndarray:
    r = int(np.floor(radius))
    span = np.arange(-r, r + 1)
    zz, yy, xx = np.meshgrid(span, span, span, indexing="ij")
    return (zz**2 + yy**2 + xx**2) <= radius**2


def _gaussian_bumps(dims, rng, n_blobs, sigma_frac=(0.15, 0.35)) -> np.ndarray:
    """Sum of positive Gaussian bumps, the smooth structure generator."""
    out = np.zeros(dims, dtype=np.float64)
    grids = np.ogrid[0 : dims[0], 0 : dims[1], 0 : dims[2]]
    for _ in range(n_blobs):
        center = [rng.uniform(0.25 * d, 0.75 * d) for d in dims]
        sigmas = [rng.uniform(sigma_frac[0] * d, sigma_frac[1] * d) for d in dims]
        amp = rng.uniform(0.4, 1.0)
        q = sum(((g - c) / s) ** 2 for g, c, s in zip(grids, center, sigmas))
        out += amp * np.exp(-0.5 * q)
    return out


def _build_template(spec: PhantomSpec, rng: np.random.Generator, support: np.ndarray) -> np.ndarray:
    """Shared two-channel template, rescaled per channel into a mid-range band."""
    template = np.zeros((2, *spec.dims), dtype=np.float64)
    for c, (lo, hi) in enumerate(_TEMPLATE_RANGE):
        raw = _gaussian_bumps(spec.dims, rng, N_TEMPLATE_BLOBS)
        inside = raw[support]
        rmin, rmax = inside.min(), inside.max()
        template[c] = lo + (raw - rmin) / (rmax - rmin) * (hi - lo)
    return template


def _subject_field(
    spec: PhantomSpec, template: np.ndarray, support: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Control-like background field for one subject (float64, unclipped)."""
    field_ = template.copy()
    for c in range(2):
        bumps = _gaussian_bumps(spec.dims, rng, N_PERTURBATION_BLOBS, sigma_frac=(0.1, 0.25))
        field_[c] += PERTURBATION_AMPLITUDE * (2.0 * bumps / bumps.max() - 1.0)
        field_[c] += rng.normal(0.0, spec.noise_sigma, size=spec.dims)
    return field_


def _finalize(field_: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Clip to [0,1], zero the background, pin channel 0 above the mask floor."""
    data = np.clip(field_, 0.0, 1.0)
    data *= support
    ch0 = data[0]
    ch0[support] = np.maximum(ch0[support], _CHANNEL0_FLOOR)
    return data.astype(np.float32)


def _draw_lesions(
    spec: PhantomSpec,
    support: np.ndarray,
    eligible_idx: np.ndarray,
    rng: np.random.Generator,
    ball: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    mask = np.zeros(spec.dims, dtype=bool)
    centers: list[tuple[int, int, int]] = []
    r = ball.shape[0] // 2
    for _ in range(spec.lesions_per_patient):
        z, y, x = eligible_idx[rng.integers(len(eligible_idx))]
        mask[z - r : z + r + 1, y - r : y + r + 1, x - r : x + r + 1] |= ball
        centers.append((int(z), int(y), int(x)))
    return mask, centers


def synth_cohort(
    spec: PhantomSpec, seed: int
) -> tuple[list[Volume], list[SubjectMeta], list[PhantomTruth]]:
    """Generate a reproducible phantom cohort: controls first, then patients.

    Subject k's random stream is np.random.default_rng(seed + k) with k the
    cohort-wide index, so regenerating any subject (with or without lesions)
    reproduces its background field exactly.
    """
    root = np.random.default_rng(seed)
    support = ellipsoid_support(spec.dims)
    template = _build_template(spec, root, support)

    ball = _ball_offsets(spec.lesion_radius)
    eligible = binary_erosion(support, structure=ball)
    eligible_idx = np.argwhere(eligible)
    if spec.n_patients > 0 and len(eligible_idx) == 0:
        raise PhantomSpecError(
            f"lesion radius {spec.lesion_radius} leaves no admissible center "
            f"inside the brain support for dims {spec.dims}"
        )

    n_total = spec.n_controls + spec.n_patients
    ages = np.maximum(root.normal(MEAN_AGE, AGE_SD, size=n_total), 25.0)
    n_female = int(round(FEMALE_FRACTION * n_total))
    sexes = np.array(["F"] * n_female + ["M"] * (n_total - n_female))
    root.shuffle(sexes)

    volumes: list[Volume] = []
    metas: list[SubjectMeta] = []
    truths: list[PhantomTruth] = []
    for k in range(n_total):
        is_patient = k >= spec.n_controls
        sid = f"pat-{k - spec.n_controls:03d}" if is_patient else f"ctrl-{k:03d}"
        rng = np.random.default_rng(seed + k)
        field_ = _subject_field(spec, template, support, rng)

        if is_patient:
            lesion_mask, centers = _draw_lesions(spec, support, eligible_idx, rng, ball)
            field_[0][lesion_mask] += spec.anomaly_magnitude
            field_[1][lesion_mask] -= spec.anomaly_magnitude
            truth = PhantomTruth(
                subject_id=sid,
                anomaly_mask=lesion_mask,
                anomaly_magnitudes=(spec.anomaly_magnitude,) * spec.lesions_per_patient,
                lesion_centers=tuple(centers),
            )
        else:
            truth = PhantomTruth(subject_id=sid, anomaly_mask=np.zeros(spec.dims, dtype=bool))

        volumes.append(
            Volume(
                subject_id=sid,
                voxel_size_mm=VOXEL_SIZE_MM,
                data=_finalize(field_, support),
            )
        )
        metas.append(
            SubjectMeta(
                subject_id=sid,
                age=float(ages[k]),
                sex=str(sexes[k]),
                cohort="patient" if is_patient else "control",
            )
        )
        truths.append(truth)
    return volumes, metas, truths

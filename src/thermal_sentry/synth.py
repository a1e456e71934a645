"""Deterministic synthetic thermal scenes with ground-truth labels.

Heat sources are isotropic Gaussian blobs moving along piecewise-linear
waypoint paths over a uniform ambient field with optional per-frame drift
and Gaussian pixel noise. Identical spec and seed give a bit-identical
dataset, which makes generated scenes usable as replay oracles for the
detection pipeline.

Noise is specified exactly so a dataset can be re-derived outside this
codebase. With mix64 the splitmix64 finalizer and G = 0x9E3779B97F4A7C15:
the stream for frame t starts from f = mix64((seed + (t+1)*G) mod 2^64);
draw k of that frame is z_k = mix64((f + (k+1)*G) mod 2^64); uniforms in
(0, 1] are u_k = ((z_k >> 11) + 1) * 2^-53; consecutive uniform pairs are
turned into standard normals with the Box-Muller transform. Pixel values
are rounded to nearest and clamped to 0..65535.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .evaluate import GroundTruthLabel, write_labels
from .frame import CheckedRecord, QuadrantId, ThermalFrame, write_pgm
from .keyvalue import checked, read_settings

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SceneError(ValueError):
    """Raised for invalid scene specifications or scene files."""


class BlobSpec(CheckedRecord, namedtuple("BlobSpec", "amplitude sigma path is_human")):
    """One Gaussian heat source.

    `path` holds (frame_index, center_x, center_y) waypoints with linear
    interpolation between them; before the first and after the last
    waypoint the blob parks at that endpoint, so a single waypoint makes a
    static source. Centers may lie outside the frame (a person out of
    view); only the in-frame Gaussian tail is rendered.
    """

    __slots__ = ()

    def __new__(cls, amplitude: float, sigma: float,
                path: tuple[tuple[int, float, float], ...], is_human: bool = True):
        self = super().__new__(cls, amplitude, sigma, path, is_human)
        # NaN slips through every check below, and neither NaN nor infinity
        # renders to pixel values
        if not math.isfinite(self.amplitude):
            raise SceneError("blob amplitude must be finite")
        if not math.isfinite(self.sigma):
            raise SceneError("blob sigma must be finite")
        if not all(math.isfinite(v) for _, x, y in self.path for v in (x, y)):
            raise SceneError("waypoint x and y must be finite")
        if self.amplitude <= 0:
            raise SceneError("blob amplitude must be positive")
        if self.sigma <= 0:
            raise SceneError("blob sigma must be positive")
        # the Gaussian's denominator: 0 (sigma**2 underflows) renders a NaN
        # centre pixel, and sigma**2 past the float range raises
        if not 0.0 < 2.0 * (self.sigma * self.sigma) < math.inf:
            raise SceneError(f"blob sigma {self.sigma!r} is out of the renderable range")
        if not self.path:
            raise SceneError("blob path needs at least one waypoint")
        times = [t for t, _, _ in self.path]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise SceneError("waypoint frame indices must strictly increase")
        return self


class SceneSpec(CheckedRecord, namedtuple(
    "SceneSpec", "frames width height ambient drift_per_frame noise_sigma seed blobs"
)):
    __slots__ = ()

    def __new__(cls, frames: int, width: int = 160, height: int = 120,
                ambient: float = 0.0, drift_per_frame: float = 0.0,
                noise_sigma: float = 0.0, seed: int = 0, blobs: tuple[BlobSpec, ...] = ()):
        self = super().__new__(cls, frames, width, height, ambient, drift_per_frame,
                               noise_sigma, seed, blobs)
        for name in ("ambient", "drift_per_frame", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise SceneError(f"{name} must be finite")
        # counts: 2.5 frames would fail in `generate`, and True render one
        for name in ("frames", "width", "height", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SceneError(f"{name} must be an int")
        if self.frames < 1:
            raise SceneError("scene needs at least one frame")
        if self.width < 2 or self.height < 2 or self.width % 2 or self.height % 2:
            raise SceneError("scene dimensions must be even and >= 2")
        if self.noise_sigma < 0:
            raise SceneError("noise_sigma must be >= 0")
        return self


class LabeledDataset(NamedTuple):
    directory: Path
    labels_path: Path
    frame_paths: tuple[Path, ...]
    labels: tuple[GroundTruthLabel, ...]


def blob_center(blob: BlobSpec, frame_index: int) -> tuple[float, float]:
    """Center position at a frame: linear between waypoints, clamped at the ends."""
    path = blob.path
    if frame_index <= path[0][0]:
        return path[0][1], path[0][2]
    for (t0, x0, y0), (t1, x1, y1) in zip(path, path[1:]):
        if frame_index <= t1:
            s = (frame_index - t0) / (t1 - t0)
            return x0 + s * (x1 - x0), y0 + s * (y1 - y0)
    return path[-1][1], path[-1][2]


# A frame is rendered one band of whole rows at a time, so that each float64
# array of a band stays within _BAND_PIXELS (64 KiB): under glibc's default
# 128 KiB mmap threshold, a band's arrays are reused heap blocks rather than
# fresh pages from the kernel. At least one row makes a band. A band gives
# the bytes of the whole-frame formula because exp, cos and sin read
# contiguous arrays and log the strided u[0::2] there too: numpy may pick
# another kernel, with other last bits, for another layout.
_BAND_PIXELS = 8192


def _mix64(z: np.ndarray) -> np.ndarray:
    # vectorized splitmix64 finalizer; uint64 arithmetic wraps mod 2^64
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def standard_normals(seed: int, frame_index: int, count: int, first: int = 0) -> np.ndarray:
    """Draws first .. first+count-1 of the frame's noise substream as
    standard normals (see module docstring). `first` must be even, so the
    draws start on a Box-Muller pair."""
    if first < 0 or first % 2:
        raise ValueError(f"first must be even and >= 0, got {first}")
    start = (seed + (frame_index + 1) * _GOLDEN) & _MASK64
    frame_seed = _mix64(np.array([start], dtype=np.uint64))[0]
    pairs = (count + 1) // 2
    ks = np.arange(first + 1, first + 2 * pairs + 1, dtype=np.uint64)
    z = _mix64(frame_seed + ks * np.uint64(_GOLDEN))
    u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * math.pi * u[1::2]
    normals = np.empty(2 * pairs)
    normals[0::2] = radius * np.cos(theta)
    normals[1::2] = radius * np.sin(theta)
    return normals[:count]


def render_frame(spec: SceneSpec, frame_index: int) -> ThermalFrame:
    """Render one frame of the scene, a band of whole rows at a time."""
    width, height = spec.width, spec.height
    band_rows = max(1, _BAND_PIXELS // width)
    xs = np.arange(width, dtype=np.float64)
    centers = [blob_center(blob, frame_index) for blob in spec.blobs]
    pixels = np.empty((height, width), dtype=np.uint16)
    for top in range(0, height, band_rows):
        ys = np.arange(top, min(top + band_rows, height), dtype=np.float64)[:, None]
        field = np.full(
            (len(ys), width),
            spec.ambient + frame_index * spec.drift_per_frame,
            dtype=np.float64,
        )
        for blob, (cx, cy) in zip(spec.blobs, centers):
            d2 = (xs - cx) ** 2 + (ys - cy) ** 2
            field += blob.amplitude * np.exp(-d2 / (2.0 * blob.sigma**2))
        if spec.noise_sigma > 0:
            noise = standard_normals(spec.seed, frame_index, field.size, first=top * width)
            field += spec.noise_sigma * noise.reshape(field.shape)
        pixels[top:top + len(ys)] = np.clip(np.rint(field), 0, 65535)
    return ThermalFrame(width, height, pixels, frame_index=frame_index)


def frame_label(spec: SceneSpec, frame_index: int) -> GroundTruthLabel:
    """Ground truth from blob-center geometry.

    A frame is positive when any human blob's center lies inside the frame;
    the occupied quadrants are those containing such centers (midline
    coordinates belong to the right/bottom half).
    """
    occupied: set[QuadrantId] = set()
    for blob in spec.blobs:
        if not blob.is_human:
            continue
        cx, cy = blob_center(blob, frame_index)
        if 0 <= cx < spec.width and 0 <= cy < spec.height:
            qx = 0 if cx < spec.width / 2 else 1
            qy = 0 if cy < spec.height / 2 else 1
            occupied.add(QuadrantId(qy * 2 + qx))
    return GroundTruthLabel(frame_index, bool(occupied), frozenset(occupied))


def generate(spec: SceneSpec, out_dir: str | Path) -> LabeledDataset:
    """Write the scene as PGM frames plus a labels CSV. A `*.pgm` file in
    `out_dir` that the scene does not write is a FileExistsError."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = tuple(out / f"frame_{t:06d}.pgm" for t in range(spec.frames))
    # checked before writing: a replay of `out_dir` would read it as a frame
    stale = sorted({p.name for p in out.glob("*.pgm")} - {p.name for p in paths})
    if stale:
        raise FileExistsError(f"{out / stale[0]}: not a frame of this scene")
    for t, path in enumerate(paths):
        write_pgm(render_frame(spec, t), path)
    labels = tuple(frame_label(spec, t) for t in range(spec.frames))
    labels_path = out / "labels.csv"
    write_labels(labels, labels_path)
    return LabeledDataset(out, labels_path, paths, labels)


def _parse_blob(value: str) -> BlobSpec:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) < 4:
        raise SceneError("blob needs amplitude, sigma, kind and waypoints")
    try:
        amplitude = float(parts[0])
        sigma = float(parts[1])
    except ValueError:
        raise SceneError(f"bad blob numbers {value!r}") from None
    kind = parts[2].lower()
    if kind not in ("human", "object"):
        raise SceneError("blob kind must be human or object")
    waypoints = []
    for part in parts[3:]:
        fields = part.split(":")
        if len(fields) != 3:
            raise SceneError(f"waypoint must be t:x:y, got {part!r}")
        try:
            waypoints.append((int(fields[0]), float(fields[1]), float(fields[2])))
        except ValueError:
            raise SceneError(f"bad waypoint {part!r}") from None
    return BlobSpec(amplitude, sigma, tuple(waypoints), is_human=kind == "human")


_KEY_TO_FIELD = {"drift": "drift_per_frame"}
# scene-file keys and how to convert their values; SceneSpec checks each
# scalar where it is written, in a one-frame scene unless the key is frames
_SCENE_KEYS = {
    key: checked(convert, partial(SceneSpec, frames=1), _KEY_TO_FIELD.get(key, key))
    for key, convert in [("width", int), ("height", int), ("frames", int), ("ambient", float),
                         ("drift", float), ("noise_sigma", float), ("seed", int)]
}
_SCENE_KEYS.update(blob=_parse_blob)


def parse_scene(text: str) -> SceneSpec:
    """Parse a scene file in the settings-file syntax of `read_settings`:
    the scalar settings (width, height, frames, ambient, drift, noise_sigma,
    seed), each on one line only, plus one line per blob:

        blob=<amplitude>,<sigma>,<human|object>,<t:x:y>[,<t:x:y>...]
    """
    settings = read_settings(text, _SCENE_KEYS, repeat=("blob",), error=SceneError)
    if "frames" not in settings:
        raise SceneError("scene file must set frames")
    blobs = tuple(settings.pop("blob", ()))
    return SceneSpec(blobs=blobs, **{_KEY_TO_FIELD.get(k, k): v for k, v in settings.items()})

"""Seeded inputs for the benchmark, built without calling the library.

Rigs, feature maps and weights come from the benchmark's own generators, so a
change to ``epiline.synthetic`` cannot change what a workload measures. Files
are written in the documented formats (camera text files, EPFM feature maps,
EPWT weight containers) by the writers below.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

CHANNELS = 64
HEADS = 8
FFN_RATIO = 4
N_BLOCKS = 1
LA_KERNEL = 3


@dataclass(frozen=True)
class Rig:
    """A reference camera at the world origin and a source camera looking at a
    shared target. ``rotation``/``translation`` take reference-camera
    coordinates to source-camera coordinates."""

    k_ref: np.ndarray  # (3, 3)
    k_src: np.ndarray  # (3, 3)
    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    height: int
    width: int

    def fundamental(self) -> np.ndarray:
        """F with l_src = F @ (x_ref, y_ref, 1): K_src^-T [t]x R K_ref^-1."""
        t = self.translation
        t_cross = np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
        return np.linalg.inv(self.k_src).T @ t_cross @ self.rotation @ np.linalg.inv(self.k_ref)


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(np.array([0.0, 1.0, 0.0]), forward)
    right = right / np.linalg.norm(right)
    return np.stack([right, np.cross(forward, right), forward])


def _intrinsics(fx: float, fy: float, cx: float, cy: float) -> np.ndarray:
    return np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])


def _epipole_in_frame(rig: Rig, margin: float) -> bool:
    for vec in (rig.k_src @ rig.translation, rig.k_ref @ (-rig.rotation.T @ rig.translation)):
        if abs(vec[2]) < 1e-9 * max(1.0, float(np.abs(vec).max())):
            continue
        x, y = vec[0] / vec[2], vec[1] / vec[2]
        if -margin <= x <= rig.width - 1 + margin and -margin <= y <= rig.height - 1 + margin:
            return True
    return False


# One rig is drawn from 15 uniforms: the reference focal length, the other
# seven intrinsics' offsets, the target (3), the lateral offset's size and sign,
# and the source camera's height and depth.
RIG_DIMS = 15


def _rig_from_uniforms(u: np.ndarray, height: int, width: int) -> Rig:
    def span(i, lo, hi):
        return lo + (hi - lo) * u[i]

    focal = span(0, 80.0, 200.0)
    k_ref = _intrinsics(
        focal, focal * span(1, 0.95, 1.05), width / 2.0 + span(2, -3.0, 3.0), height / 2.0 + span(3, -3.0, 3.0)
    )
    k_src = _intrinsics(
        focal * span(4, 0.9, 1.1),
        focal * span(5, 0.9, 1.1),
        width / 2.0 + span(6, -3.0, 3.0),
        height / 2.0 + span(7, -3.0, 3.0),
    )
    target = np.array([span(8, -0.5, 0.5), span(9, -0.5, 0.5), span(10, 5.0, 8.0)])
    lateral = span(11, 0.4, 1.2) * (1 if u[12] < 0.5 else -1)
    position = np.array([lateral, span(13, -0.4, 0.4), span(14, -0.3, 0.3)])
    rotation = _look_at(position, target)
    return Rig(k_ref, k_src, rotation, -rotation @ position, height, width)


def centre_rig(height: int, width: int) -> Rig:
    """The centre of the parameter box: the fixed rig of the mirrored workload,
    the same for every seed so that its pair structure never changes."""
    return _rig_from_uniforms(np.full(RIG_DIMS, 0.5), height, width)


class RigSequence:
    """Convergent tabletop rigs with both epipoles at least 8 px out of frame.

    The rigs tour the parameter box along a Kronecker sequence that starts at
    the box's centre: each parameter advances by the fractional part of the
    square root of a distinct prime. The seed shifts every rig by up to 0.1% of each range. Every run
    thus meets the same mix of geometries, new at every op, and the spread of
    a run's mean cost across seeds stays small.
    """

    _STEPS = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]) % 1.0
    JITTER = 0.002

    def __init__(self, rng: np.random.Generator, height: int, width: int):
        self.rng = rng
        self.point = np.full(RIG_DIMS, 0.5)
        self.height, self.width = height, width

    def next(self) -> Rig:
        while True:
            u = np.clip(self.point + self.JITTER * (self.rng.random(RIG_DIMS) - 0.5), 0.0, 1.0)
            self.point = (self.point + self._STEPS) % 1.0
            rig = _rig_from_uniforms(u, self.height, self.width)
            if not _epipole_in_frame(rig, margin=8.0):
                return rig


def camera_pair(rig: Rig):
    """The rig as an ``epiline.CameraPair`` (library workloads)."""
    from epiline.geometry import CameraExtrinsics, CameraIntrinsics, CameraPair

    def intr(k):
        return CameraIntrinsics(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=k[1, 2])

    return CameraPair(
        intr(rig.k_ref),
        intr(rig.k_src),
        CameraExtrinsics(rig.rotation, rig.translation),
        (rig.height, rig.width),
    )


def _write_cam(path, extrinsic: np.ndarray, intrinsic: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("extrinsic\n")
        for row in extrinsic:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write("\nintrinsic\n")
        for row in intrinsic:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write("\n2 0.01\n")


def write_cam_files(rig: Rig, ref_path, src_path) -> None:
    """Reference camera at the identity, source camera at [R | t]."""
    src_ext = np.eye(4)
    src_ext[:3, :3] = rig.rotation
    src_ext[:3, 3] = rig.translation
    _write_cam(ref_path, np.eye(4), rig.k_ref)
    _write_cam(src_path, src_ext, rig.k_src)


def feature_map(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.standard_normal((height, width, CHANNELS))


def write_epfm(path, data: np.ndarray) -> None:
    """'EPFM', u32 H, W, C, then little-endian f32 row-major values."""
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(b"EPFM" + struct.pack("<III", h, w, c))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_epfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"EPFM":
        raise ValueError(f"{path}: bad magic")
    h, w, c = struct.unpack("<III", blob[4:16])
    if len(blob) != 16 + 4 * h * w * c:
        raise ValueError(f"{path}: wrong size")
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(h, w, c).astype(np.float32)


# EPWT payload order, per block: intra wq,bq,wk,bk,wv,bv,wo,bo; cross likewise;
# ffn w1,b1,w2,b2; then the local kernel and bias.
_PROJ_ORDER = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def weight_tensors(seed: int) -> dict:
    """Seeded weights, uniform in [-1/sqrt(C), 1/sqrt(C)] and rounded to float32
    exactly as the EPWT container stores them."""
    rng = np.random.default_rng([seed, 7])
    c, f, k = CHANNELS, FFN_RATIO * CHANNELS, LA_KERNEL
    bound = 1.0 / math.sqrt(c)

    def u(*shape):
        return rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)

    def proj():
        return {name: u(c, c) if name.startswith("w") else u(c) for name in _PROJ_ORDER}

    blocks = [
        {"intra": proj(), "cross": proj(), "ffn": {"w1": u(c, f), "b1": u(f), "w2": u(f, c), "b2": u(c)}}
        for _ in range(N_BLOCKS)
    ]
    return {"blocks": blocks, "kernel": u(k, k, c, c), "bias": u(c)}


def write_epwt(path, weights: dict) -> None:
    header = b"EPWT" + struct.pack("<IIIII", N_BLOCKS, CHANNELS, HEADS, FFN_RATIO, LA_KERNEL)
    with open(path, "wb") as fh:
        fh.write(header)
        for block in weights["blocks"]:
            for side in ("intra", "cross"):
                for name in _PROJ_ORDER:
                    fh.write(block[side][name].astype("<f4").tobytes())
            for name in ("w1", "b1", "w2", "b2"):
                fh.write(block["ffn"][name].astype("<f4").tobytes())
        fh.write(weights["kernel"].astype("<f4").tobytes())
        fh.write(weights["bias"].astype("<f4").tobytes())

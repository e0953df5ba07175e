"""Two-view pinhole geometry: cross-view projection and closed-form epipolar lines.

A calibrated reference/source camera pair induces, for every reference pixel,
a line in the source image containing that pixel's projection at every depth.
This module derives the line in slope/intercept form directly from the camera
parameters, without sampling depths, and provides the classic fundamental
matrix as an independent cross-check.

Conventions: pixel centers sit at integer coordinates, x runs rightward along
columns, y downward along rows. The relative extrinsics map reference-camera
coordinates to source-camera coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateLineError, SingularIntrinsicsError, ZeroBaselineError

# Elementwise tolerance for rotation orthonormality and unit determinant.
ROTATION_ATOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units.

    The 3x3 matrix form is upper-triangular with a unit bottom-right entry:

        [[fx, skew, cx],
         [ 0,   fy, cy],
         [ 0,    0,  1]]
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise SingularIntrinsicsError(
                f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}"
            )

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def inverse_matrix(self) -> np.ndarray:
        """Closed-form inverse of the upper-triangular matrix form."""
        fx, fy, cx, cy, s = self.fx, self.fy, self.cx, self.cy, self.skew
        return np.array(
            [
                [1.0 / fx, -s / (fx * fy), (s * cy - cx * fy) / (fx * fy)],
                [0.0, 1.0 / fy, -cy / fy],
                [0.0, 0.0, 1.0],
            ]
        )

    @classmethod
    def from_matrix(cls, k: np.ndarray) -> "CameraIntrinsics":
        k = np.asarray(k, dtype=float)
        if k.shape != (3, 3):
            raise ValueError(f"intrinsic matrix must be 3x3, got {k.shape}")
        lower = np.array([k[1, 0], k[2, 0], k[2, 1]])
        if np.abs(lower).max() > 1e-9 or abs(k[2, 2] - 1.0) > 1e-9:
            raise ValueError("intrinsic matrix must be upper-triangular with K[2][2] = 1")
        return cls(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=k[1, 2], skew=k[0, 1])


@dataclass(frozen=True)
class CameraExtrinsics:
    """Rigid transform: x_out = rotation @ x_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.array(self.rotation, dtype=float).reshape(3, 3)
        translation = np.array(self.translation, dtype=float).reshape(3)
        gram_err = np.abs(rotation.T @ rotation - np.eye(3)).max()
        if gram_err > ROTATION_ATOL:
            raise ValueError(
                f"rotation is not orthonormal (max |R^T R - I| = {gram_err:.3e})"
            )
        det = float(np.linalg.det(rotation))
        if abs(det - 1.0) > ROTATION_ATOL:
            raise ValueError(f"rotation determinant must be +1, got {det!r}")
        rotation.flags.writeable = False
        translation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls) -> "CameraExtrinsics":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "CameraExtrinsics":
        rt = self.rotation.T
        return CameraExtrinsics(rt, -rt @ self.translation)

    def compose(self, other: "CameraExtrinsics") -> "CameraExtrinsics":
        """Transform applying ``other`` first, then ``self``."""
        return CameraExtrinsics(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def matrix4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class CameraPair:
    """A calibrated reference/source view pair sharing one image size.

    ``rel_extrinsics`` takes reference-camera coordinates to source-camera
    coordinates. The translation must be nonzero: with a zero baseline every
    reference pixel maps to a single source point and no lines exist.
    """

    ref_intrinsics: CameraIntrinsics
    src_intrinsics: CameraIntrinsics
    rel_extrinsics: CameraExtrinsics
    image_size: tuple[int, int]  # (height, width) in pixels

    def __post_init__(self):
        h, w = self.image_size
        if h < 1 or w < 1:
            raise ValueError(f"image size must be at least 1x1, got {h}x{w}")
        object.__setattr__(self, "image_size", (int(h), int(w)))
        if float(np.linalg.norm(self.rel_extrinsics.translation)) == 0.0:
            raise ZeroBaselineError("nonzero baseline required")

    @property
    def height(self) -> int:
        return self.image_size[0]

    @property
    def width(self) -> int:
        return self.image_size[1]

    def swapped(self) -> "CameraPair":
        """The same rig with reference and source roles exchanged."""
        return CameraPair(
            ref_intrinsics=self.src_intrinsics,
            src_intrinsics=self.ref_intrinsics,
            rel_extrinsics=self.rel_extrinsics.inverse(),
            image_size=self.image_size,
        )


@dataclass(frozen=True)
class ProjectionConstants:
    """Per-pair constants: a pixel p at depth d projects to
    dehomogenize(warp_matrix @ (x, y, 1) * d + offset)."""

    warp_matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        warp = np.array(self.warp_matrix, dtype=float).reshape(3, 3)
        offset = np.array(self.offset, dtype=float).reshape(3)
        if not (np.isfinite(warp).all() and np.isfinite(offset).all()):
            raise ValueError("projection constants must be finite")
        if abs(np.linalg.det(warp)) == 0.0:
            raise ValueError("warp matrix must be invertible")
        warp.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "warp_matrix", warp)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True)
class PixelProjectionCoeffs:
    """Per-pixel projection coefficients.

    The source position at depth d is
    ((a1*d + b1) / (a3*d + b3), (a2*d + b2) / (a3*d + b3)): the a's come from
    the warp-matrix rows dotted with the homogeneous pixel, the b's are the
    offset components.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float


class Orientation(Enum):
    """Which axis parameterizes a line: y = k*x + b (STANDARD) or x = k*y + b (SWAPPED)."""

    STANDARD = "standard"
    SWAPPED = "swapped"


@dataclass(frozen=True)
class EpipolarLine:
    """A line in slope/intercept form under one of the two orientations.

    The orientation is chosen so that |slope| <= 1, which keeps rounding-based
    quantization of the slope uniformly resolved across all line angles.
    """

    orientation: Orientation
    slope: float
    intercept: float

    def coeffs3(self) -> np.ndarray:
        """Implicit form (A, B, C) with A*x + B*y + C = 0."""
        if self.orientation is Orientation.STANDARD:
            return np.array([self.slope, -1.0, self.intercept])
        return np.array([1.0, -self.slope, -self.intercept])

    def perpendicular_distance(self, x, y):
        """Perpendicular distance from point(s) to the line; broadcasts over arrays."""
        if self.orientation is Orientation.STANDARD:
            return np.abs(y - self.slope * x - self.intercept) / math.sqrt(
                1.0 + self.slope * self.slope
            )
        return np.abs(x - self.slope * y - self.intercept) / math.sqrt(
            1.0 + self.slope * self.slope
        )

    def arc_parameter(self, x, y):
        """Scalar projection of point(s) onto the line's unit direction.

        Sorting by this value orders points by physical position along the line.
        """
        norm = math.sqrt(1.0 + self.slope * self.slope)
        if self.orientation is Orientation.STANDARD:
            return (x + self.slope * y) / norm
        return (self.slope * x + y) / norm


def projection_constants(pair: CameraPair) -> ProjectionConstants:
    """Build the warp matrix K_src @ R @ K_ref^-1 and offset K_src @ t for a pair."""
    k_src = pair.src_intrinsics.matrix()
    warp = k_src @ pair.rel_extrinsics.rotation @ pair.ref_intrinsics.inverse_matrix()
    offset = k_src @ pair.rel_extrinsics.translation
    return ProjectionConstants(warp_matrix=warp, offset=offset)


def pixel_coeffs(constants: ProjectionConstants, x_r: float, y_r: float) -> PixelProjectionCoeffs:
    """Projection coefficients of one reference pixel."""
    w = constants.warp_matrix
    o = constants.offset
    return PixelProjectionCoeffs(
        a1=float(w[0, 0] * x_r + w[0, 1] * y_r + w[0, 2]),
        a2=float(w[1, 0] * x_r + w[1, 1] * y_r + w[1, 2]),
        a3=float(w[2, 0] * x_r + w[2, 1] * y_r + w[2, 2]),
        b1=float(o[0]),
        b2=float(o[1]),
        b3=float(o[2]),
    )


def _denominator_epsilon(a3, b3):
    """Scale-relative threshold below which the projective denominator counts as zero."""
    return 1e-9 * np.maximum(np.maximum(np.abs(a3), np.abs(b3)), 1.0)


def project_pixel(coeffs: PixelProjectionCoeffs, depth: float):
    """Project a reference pixel into the source view at one depth.

    Args:
        coeffs: Per-pixel projection coefficients.
        depth: Depth hypothesis, must be positive.

    Returns:
        (x_s, y_s) pixel coordinates, or None when the denominator vanishes
        (the projection is at infinity).
    """
    if not depth > 0.0:
        raise ValueError(f"depth must be positive, got {depth}")
    den = coeffs.a3 * depth + coeffs.b3
    if abs(den) < _denominator_epsilon(coeffs.a3, coeffs.b3):
        return None
    return (
        (coeffs.a1 * depth + coeffs.b1) / den,
        (coeffs.a2 * depth + coeffs.b2) / den,
    )


def project_pixel_sweep(coeffs: PixelProjectionCoeffs, depths: np.ndarray):
    """Vectorized projection over a depth array.

    Returns:
        (xs, ys, finite) arrays; entries with finite=False hit the
        at-infinity denominator and hold NaN coordinates.
    """
    depths = np.asarray(depths, dtype=float)
    if not (depths > 0.0).all():
        raise ValueError("all depths must be positive")
    den = coeffs.a3 * depths + coeffs.b3
    finite = np.abs(den) >= _denominator_epsilon(coeffs.a3, coeffs.b3)
    safe = np.where(finite, den, 1.0)
    xs = np.where(finite, (coeffs.a1 * depths + coeffs.b1) / safe, np.nan)
    ys = np.where(finite, (coeffs.a2 * depths + coeffs.b2) / safe, np.nan)
    return xs, ys, finite


# Largest depth probed when the zero-depth intercept form is unusable.
_MAX_FALLBACK_DEPTH = 2.0**40


def _line_params(a1, a2, a3, b1, b2, b3):
    """Slope, intercept, and branch selection from projection coefficients.

    Operates elementwise on same-shaped arrays. Returns
    (swapped, slope, intercept, degenerate) where ``swapped`` selects the
    x = k*y + b orientation and ``degenerate`` flags pixels whose projections
    do not move with depth (no line exists; other outputs are meaningless
    there). The branch with |slope| <= 1 is always chosen.

    The intercept comes from the zero-depth sample when its denominator is
    usable, otherwise from the first usable depth in 1, 2, 4, ... (any sample
    is exact because the line does not depend on depth).
    """
    dx = a1 * b3 - a3 * b1
    dy = a2 * b3 - a3 * b2

    coeff_scale = np.abs(np.stack([a1, a2, a3, b1, b2, b3])).max(axis=0)
    eps_dir = 1e-12 * coeff_scale
    degenerate = np.maximum(np.abs(dx), np.abs(dy)) <= eps_dir

    swapped = np.abs(dy) > np.abs(dx)
    num = np.where(swapped, dx, dy)
    den = np.where(swapped, dy, dx)
    slope = num / np.where(degenerate, 1.0, den)

    eps_den = _denominator_epsilon(a3, b3)
    intercept = np.full_like(slope, np.nan)

    at_zero = (np.abs(b3) >= eps_den) & ~degenerate
    if at_zero.any():
        x0 = b1 / np.where(at_zero, b3, 1.0)
        y0 = b2 / np.where(at_zero, b3, 1.0)
        val = np.where(swapped, x0 - slope * y0, y0 - slope * x0)
        intercept = np.where(at_zero, val, intercept)

    unresolved = ~at_zero & ~degenerate
    d0 = 1.0
    while unresolved.any() and d0 <= _MAX_FALLBACK_DEPTH:
        den0 = a3 * d0 + b3
        usable = unresolved & (np.abs(den0) > eps_den)
        if usable.any():
            safe = np.where(usable, den0, 1.0)
            xs = (a1 * d0 + b1) / safe
            ys = (a2 * d0 + b2) / safe
            val = np.where(swapped, xs - slope * ys, ys - slope * xs)
            intercept = np.where(usable, val, intercept)
            unresolved = unresolved & ~usable
        d0 *= 2.0
    # A coefficient set failing every probe has a3 and b3 both effectively
    # zero, which already implies a degenerate direction; flag it anyway.
    degenerate = degenerate | unresolved

    return swapped, slope, intercept, degenerate


def epipolar_line(coeffs: PixelProjectionCoeffs) -> EpipolarLine:
    """Closed-form line traced in the source view by one reference pixel.

    Raises:
        DegenerateLineError: When the pixel's projection does not move with
            depth (the pixel coincides with the image of the other camera's
            center), so no line exists.
    """
    swapped, slope, intercept, degenerate = _line_params(
        np.array([coeffs.a1]),
        np.array([coeffs.a2]),
        np.array([coeffs.a3]),
        np.array([coeffs.b1]),
        np.array([coeffs.b2]),
        np.array([coeffs.b3]),
    )
    if bool(degenerate[0]):
        raise DegenerateLineError(
            "projection direction vanishes for this pixel; no epipolar line"
        )
    orientation = Orientation.SWAPPED if bool(swapped[0]) else Orientation.STANDARD
    return EpipolarLine(orientation, float(slope[0]), float(intercept[0]))


def line_parameter_grid(constants: ProjectionConstants, height: int, width: int):
    """Line parameters for every pixel of a height x width reference grid.

    Returns:
        (swapped, slope, intercept, degenerate), each of shape (height, width),
        computed with the exact same arithmetic as :func:`epipolar_line`.
    """
    w = constants.warp_matrix
    o = constants.offset
    xs = np.arange(width, dtype=float)[None, :]
    ys = np.arange(height, dtype=float)[:, None]
    a1 = w[0, 0] * xs + w[0, 1] * ys + w[0, 2]
    a2 = w[1, 0] * xs + w[1, 1] * ys + w[1, 2]
    a3 = w[2, 0] * xs + w[2, 1] * ys + w[2, 2]
    shape = (height, width)
    b1 = np.broadcast_to(np.float64(o[0]), shape)
    b2 = np.broadcast_to(np.float64(o[1]), shape)
    b3 = np.broadcast_to(np.float64(o[2]), shape)
    a1, a2, a3 = np.broadcast_to(a1, shape), np.broadcast_to(a2, shape), np.broadcast_to(a3, shape)
    return _line_params(a1, a2, a3, b1, b2, b3)


def fundamental_matrix(pair: CameraPair) -> np.ndarray:
    """Classic two-view fundamental matrix K_src^-T [t]x R K_ref^-1.

    Serves as an independent check of the slope/intercept derivation: for any
    reference pixel p, F @ (p, 1) is the implicit form of the same source line.
    """
    t = pair.rel_extrinsics.translation
    t_cross = np.array(
        [
            [0.0, -t[2], t[1]],
            [t[2], 0.0, -t[0]],
            [-t[1], t[0], 0.0],
        ]
    )
    k_src_inv_t = pair.src_intrinsics.inverse_matrix().T
    return k_src_inv_t @ t_cross @ pair.rel_extrinsics.rotation @ pair.ref_intrinsics.inverse_matrix()

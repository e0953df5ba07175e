"""Independent reference computations used to check the library.

Everything here is deliberately slow and literal: explicit loops, direct
matrix chains, exact rational rounding. None of it shares code with the
implementation paths it validates. The attention oracle lives in the library
(``epiline.verify.reference_et_forward``) so that ``epiline verify`` can use it.
"""

from fractions import Fraction

import numpy as np


def homography_project(k_ref, k_src, rotation, translation, x, y, depth):
    """Direct matrix-chain projection of a reference pixel at one depth."""
    p_ref = np.array([x, y, 1.0])
    point = rotation @ (np.linalg.inv(k_ref) @ p_ref * depth) + translation
    p_src = k_src @ point
    return p_src[0] / p_src[2], p_src[1] / p_src[2]


def fit_line_least_squares(xs, ys):
    """Total-least-squares line through points: unit normal (a, b) and offset c
    with a*x + b*y + c = 0."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mx, my = xs.mean(), ys.mean()
    cov = np.cov(np.stack([xs - mx, ys - my]))
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    normal = eigenvectors[:, 0]  # smallest-variance direction
    a, b = normal
    c = -(a * mx + b * my)
    return a, b, c


def point_line_residuals(xs, ys, a, b, c):
    return np.abs(a * np.asarray(xs) + b * np.asarray(ys) + c) / np.hypot(a, b)


def round_half_even_exact(value, step):
    """Exact round-to-nearest-even of value/step using rational arithmetic."""
    return int(round(Fraction(value) / Fraction(step)))


def count_rounding_bins(values, step):
    """Distinct bins the values fall into under exact half-even rounding."""
    return len({round_half_even_exact(float(v), step) for v in values})


def naive_conv2d(data, kernel, bias):
    """Six-loop dense convolution with zero padding, same output size."""
    h, w, c_in = data.shape
    k = kernel.shape[0]
    c_out = kernel.shape[3]
    r = k // 2
    out = np.zeros((h, w, c_out))
    for y in range(h):
        for x in range(w):
            for u in range(k):
                for v in range(k):
                    yy, xx = y + u - r, x + v - r
                    if 0 <= yy < h and 0 <= xx < w:
                        for ci in range(c_in):
                            out[y, x] += data[yy, xx, ci] * kernel[u, v, ci]
    return out + bias


def line_intersects_rect(a, b, c, width, height):
    """Whether the line a*x + b*y + c = 0 meets [0, W-1] x [0, H-1].

    Checked by corner signs: the line crosses the rectangle exactly when the
    corner evaluations are not all strictly one-signed.
    """
    corners = [(0.0, 0.0), (width - 1.0, 0.0), (0.0, height - 1.0), (width - 1.0, height - 1.0)]
    values = [a * x + b * y + c for x, y in corners]
    return min(values) <= 0.0 <= max(values)

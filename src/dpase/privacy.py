"""Gaussian-perturbation mechanism for private spectral embeddings.

The release works in three steps: calibrate a per-entry Gaussian
variance from the privacy budget, add a symmetric noise matrix to the
adjacency matrix, and spectrally embed the perturbed matrix. The noise
matrix is symmetric, so ``sample_symmetric_noise``, the mechanism's only
noise draw, returns just one triangle, packed
(:class:`~dpase.embedding.PackedSymmetric`) and filled in its storage
order as two fixed halves, each from its own child stream of ``rng``
(on two threads from ``LANCZOS_MIN_N`` on; the bits do not depend on
the thread count). ``dp_ase`` has it add the adjacency's upper
triangle as it draws, so A + E is built in one pass over its buffer.
Each call is a standalone (alpha, delta) release; composition across
repeated queries is not accounted for here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import ParameterRangeError, mark_checked
from .embedding import PackedSymmetric, ase, draw_in_two
from .graphs import validate_adjacency


class CalibrationError(ValueError):
    """Raised when a privacy budget cannot be turned into a noise scale."""


@dataclass(frozen=True)
class PrivacyBudget:
    """An (alpha, delta) privacy budget; smaller values mean more noise.

    Both are held as Python floats, so a numpy scalar computes and
    prints like one.
    """

    alpha: float
    delta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterRangeError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.delta < 1:
            raise ParameterRangeError(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "delta", float(self.delta))


@dataclass(frozen=True)
class NoiseScale:
    """Per-entry Gaussian variance calibrated for an n x n matrix at dim d."""

    beta_sq: float
    n: int
    d: int


def _check_noise_ratio(d: int, delta: float) -> None:
    """Raise CalibrationError when ``d/delta <= 1``, where ``ln(d/delta)``
    gives no positive noise scale. A nonpositive delta is left to the
    budget's own range check, which this one precedes in a sweep."""
    if delta > 0 and d / delta <= 1.0:
        raise CalibrationError(
            f"d/delta must exceed 1 for a positive noise scale, got {d / delta!r}"
        )


def calibrate_noise(n: int, d: int, budget: PrivacyBudget) -> NoiseScale:
    """Per-entry noise variance for an (alpha, delta)-private embedding.

    Computes ``8 d^2 ln^2(d/delta) / (n^2 alpha^2)`` with the natural
    logarithm. Requires ``d/delta > 1`` so the variance is strictly
    positive, and an alpha for which it is finite and nonzero in floating
    point.
    """
    if n < 1:
        raise CalibrationError(f"matrix size must be at least 1, got {n}")
    if not 1 <= d <= n:
        raise CalibrationError(f"dimension must satisfy 1 <= d <= {n}, got {d}")
    _check_noise_ratio(d, budget.delta)
    try:
        beta_sq = (8.0 * d * d * math.log(d / budget.delta) ** 2
                   / (n * n * budget.alpha * budget.alpha))
    except ZeroDivisionError:
        beta_sq = math.inf
    if not 0.0 < beta_sq < math.inf:
        raise CalibrationError(
            f"alpha={budget.alpha!r} gives a noise variance of {beta_sq!r}, "
            "outside the floating-point range"
        )
    return NoiseScale(beta_sq=beta_sq, n=n, d=d)


def sample_symmetric_noise(
    n: int, scale: NoiseScale | float, rng: np.random.Generator, *,
    plus: np.ndarray | None = None,
) -> PackedSymmetric:
    """Symmetric n x n Gaussian noise with per-entry variance beta_sq,
    plus the n x n matrix ``plus`` if one is given.

    One triangle including the diagonal is drawn i.i.d. from
    N(0, beta_sq) and returned packed; its mirror image is the other
    triangle, so every entry keeps variance exactly beta_sq (averaging
    two independent draws would halve it). ``.data``, in its own storage
    order (LAPACK's RFP layout), is split at half its size: each half is
    filled with standard normals from its own child stream of ``rng``
    (:func:`~dpase.embedding.draw_in_two`), a group of whole RFP columns
    at a time (:meth:`~dpase.embedding.PackedSymmetric.fill`), and each
    group is scaled, and has the upper triangle of ``plus`` added, while
    it is still in cache. So every value is fl(fl(sigma z) + a), the same
    bits as adding ``plus`` to the noise drawn without it, and the values
    depend on n, rng and plus alone, never on the thread count. Which
    draw lands on which entry does not change the distribution. The
    packed vector, 4 n^2 bytes, is the only large allocation; call
    ``.dense()`` for the full matrix.
    """
    beta_sq = scale.beta_sq if isinstance(scale, NoiseScale) else float(scale)
    if not 0 < beta_sq < math.inf:
        raise ValueError(f"noise variance must be positive and finite, got {beta_sq}")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"matrix size must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    if plus is not None and np.shape(plus) != (n, n):
        raise ValueError(f"the matrix to add must be {n} x {n}, got shape {np.shape(plus)}")
    noise = PackedSymmetric(n, np.empty(n * (n + 1) // 2))
    cut, sigma = noise.data.size // 2, math.sqrt(beta_sq)
    halves = (0, cut), (cut, noise.data.size)
    draw_in_two(n, rng, lambda stream, c: noise.fill(*halves[c], lambda piece: np.multiply(
        stream.standard_normal(out=piece), sigma, out=piece), plus))
    return noise


def dp_ase(
    A: np.ndarray, d: int, budget: PrivacyBudget, rng: np.random.Generator
) -> np.ndarray:
    """Differentially private spectral embedding of an adjacency matrix.

    Perturbs the whole matrix, diagonal included, and embeds the result.
    The perturbed matrix is used as-is: entries are neither clipped back
    to [0, 1] nor re-binarized, and the diagonal is not re-zeroed, since
    any such post-processing would change the released object. A + E
    comes packed from one pass of ``sample_symmetric_noise`` at the
    calibrated scale, which adds A's upper triangle as it draws, so the
    only large buffer it allocates is 4 n^2 bytes. A + E is finite by
    construction (the calibrated beta is below 1.35e154 and every normal
    is finite), so it is marked checked and the embedding does not scan
    it again.
    """
    A = validate_adjacency(A)
    n = A.shape[0]
    M = sample_symmetric_noise(n, calibrate_noise(n, d, budget), rng, plus=A)
    mark_checked(M.data)
    return ase(M, d)

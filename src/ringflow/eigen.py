"""Smallest eigenpair of a real symmetric matrix: the package's one eigensolver.

Every eigenvalue in the package comes from here: truncated backflow kernels,
and the half-line Nystrom matrix of the line limit.  The solve is a dense
LAPACK subset eigh for the lowest eigenpair, and the result is certified by an
explicit residual instead of trusting backend defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernel import BackflowKernel

_RESIDUAL_FACTOR = 1e-10


class EigenSolveError(RuntimeError):
    """Eigensolver failed to produce a certified smallest eigenpair."""


@dataclass(frozen=True)
class EigenResult:
    lambda_min: float
    eigenvector: np.ndarray
    n_trunc: int
    residual_norm: float
    method: str
    iterations: int | None = None

    def to_record(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "n_trunc": self.n_trunc,
            "residual_norm": self.residual_norm,
            "method": self.method,
            "iterations": self.iterations,
        }


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return v


def min_eigen(matrix: BackflowKernel | np.ndarray) -> EigenResult:
    """Smallest eigenvalue and eigenvector of a kernel or real symmetric matrix.

    The eigenvector is unit-norm with its first nonzero component positive.
    n_trunc is the highest index, size - 1 (the kernel's truncation N).  The
    residual |A v - lambda v| must stay below 1e-10 times the largest
    diagonal magnitude, otherwise EigenSolveError is raised.
    """
    a = matrix.entries if isinstance(matrix, BackflowKernel) else np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {a.shape}")
    n_trunc = a.shape[0] - 1

    vals, vecs = scipy.linalg.eigh(a, subset_by_index=(0, 0))
    lam = float(vals[0])
    vec = _sign_normalize(np.ascontiguousarray(vecs[:, 0]))
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(a @ vec - lam * vec))
    scale = float(np.max(np.abs(np.diagonal(a)))) or 1.0
    if residual > _RESIDUAL_FACTOR * scale:
        raise EigenSolveError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * {scale:.3e} "
            f"(N={n_trunc})"
        )
    vec.setflags(write=False)
    return EigenResult(
        lambda_min=lam,
        eigenvector=vec,
        n_trunc=n_trunc,
        residual_norm=residual,
        method="dense",
    )

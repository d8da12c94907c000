"""Smallest eigenpair of a real symmetric matrix: the package's one eigensolver.

Every eigenvalue in the package comes from here: truncated backflow kernels,
and the half-line Nystrom matrix of the line limit, which is a ring kernel
too.  Two paths, picked by size alone:

- dense: a LAPACK subset eigh for the lowest eigenpair, on the kernel's
  entries; used for kernels up to _DENSE_MAX_SIZE modes;
- lobpcg: scipy's LOBPCG on the kernel's FFT matvec, with the diagonal
  preconditioner 1/(D + 1) and a start vector from the lowest eigenvector of
  the leading _START_BLOCK modes; O(N) memory.

Either result is certified by an explicit residual |K v - lambda v|, taken
with the same operator the path solved, instead of trusting backend defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernel import BackflowKernel

_RESIDUAL_FACTOR = 1e-10

# Largest kernel size solved dense: the measured crossover of min_eigen on 2
# threads.  LOBPCG beats dense build + eigh from 400 modes at alpha/pi =
# 0.3703965 and (alpha, beta) = (1.7, -0.4) and from 500 at alpha/pi = 0.05;
# at alpha = 1e-3, where it takes about 60 iterations, the two tie from 600
# to 750 modes and LOBPCG wins from 800.
_DENSE_MAX_SIZE = 600
# Modes of the leading block whose lowest eigenvector starts LOBPCG.
_START_BLOCK = 64
# LOBPCG stops at a residual of 1e-14 * (max|sin a| + max|D|).  The matvec's
# rounding floor is a few 1e-16 times that, because its two Toeplitz terms
# are each about max|sin a| |x| and largely cancel.  For max|D| >= 1 this is
# at least 5e3 times below the certificate, and the eigenvector then matches dense
# eigh to about 1e-13 (1e-11 at a factor 1e-12), which <E> and the current,
# weighted towards high modes, need.  1 + max|D| in place of max|sin a| +
# max|D| stopped above the certificate at alpha = 1e-10, N = 10000.  The
# hardest points tried, 1e-6 <= alpha <= 1e-2, took up to 77 iterations.
_LOBPCG_TOL_FACTOR = 1e-14
_LOBPCG_MAXITER = 500


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


def _lowest_dense(a: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = scipy.linalg.eigh(a, subset_by_index=(0, 0))
    return float(vals[0]), vecs[:, 0]


def _lowest_lobpcg(kernel: BackflowKernel, scale: float) -> tuple[float, np.ndarray, int]:
    """LOBPCG's lowest pair and iteration count; scale is max|D|."""
    # imported here: scipy.sparse.linalg adds about 0.13 s to the package import
    from scipy.sparse.linalg import lobpcg

    block = min(_START_BLOCK, kernel.size)
    start = np.zeros((kernel.size, 1))
    start[:block, 0] = _lowest_dense(kernel.leading_block(block).dense())[1]
    precond = 1.0 / (kernel.diagonal() + 1.0)
    vals, vecs, history = lobpcg(
        kernel.matvec,
        start,
        M=lambda x: precond[:, None] * x,
        tol=_LOBPCG_TOL_FACTOR * (np.max(np.abs(kernel.sin_phase)) + scale),
        maxiter=_LOBPCG_MAXITER,
        largest=False,
        retLambdaHistory=True,
    )
    # history holds the start and final Ritz values around one per iteration
    return float(vals[0]), vecs[:, 0], len(history) - 2


def min_eigen(kernel: BackflowKernel) -> EigenResult:
    """Smallest eigenvalue and eigenvector of a kernel.

    A kernel above _DENSE_MAX_SIZE modes goes to LOBPCG, anything else to
    dense eigh; method and iterations say which.  The eigenvector is
    unit-norm with its first nonzero component positive.  n_trunc is the
    highest index, size - 1 (the kernel's truncation N).  The residual
    |K v - lambda v| must stay below 1e-10 times the largest diagonal
    magnitude, otherwise EigenSolveError is raised.
    """
    # the operator's diagonal is bitwise the dense one
    scale = float(np.max(np.abs(kernel.diagonal()))) or 1.0
    if kernel.size > _DENSE_MAX_SIZE:
        apply = kernel.matvec
        lam, vec, iterations = _lowest_lobpcg(kernel, scale)
        method = "lobpcg"
    else:
        apply = kernel.dense().__matmul__
        lam, vec = _lowest_dense(kernel.dense())
        method, iterations = "dense", None
    n_trunc = vec.shape[0] - 1

    vec = _sign_normalize(np.ascontiguousarray(vec))
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(apply(vec) - lam * vec))
    if not residual <= _RESIDUAL_FACTOR * scale:
        raise EigenSolveError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * {scale:.3e} "
            f"(N={n_trunc}, {method})"
        )
    vec.setflags(write=False)
    return EigenResult(
        lambda_min=lam,
        eigenvector=vec,
        n_trunc=n_trunc,
        residual_norm=residual,
        method=method,
        iterations=iterations,
    )

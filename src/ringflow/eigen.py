"""Smallest eigenpair of a real symmetric matrix: the package's one eigensolver.

Every eigenvalue in the package comes from here: truncated backflow kernels,
and the half-line Nystrom matrix of the line limit, which is a ring kernel
too.  One path at every size, numpy only: a single-vector LOBPCG (Knyazev,
SIAM J. Sci. Comput. 23 (2001) 517) on the kernel's FFT matvec, with the
diagonal preconditioner 1/(D + 1) and a start vector from LAPACK's eigh on
the leading _START_BLOCK = 25 modes; O(N) memory beyond that block.  A kernel
of at most 25 modes is its own start block, so there the start vector is
dense eigh's eigenvector, and on every kernel tried LOBPCG stops at
iteration 0.  The block is 25 modes because LAPACK's dsyevd makes no level-3
BLAS call up to that size, so the start vector wakes no OpenBLAS worker
thread.

A caller that solves a ladder of leading blocks in increasing size passes
each solve's eigenvector as the next one's start, in place of the 25-mode
block.  The kernel on N modes is the leading block of the kernel on any
N' > N modes, so that vector, padded with zeros, has Rayleigh quotient
lambda(N) at N', and lambda(N') <= lambda(N) by Cauchy interlacing; LOBPCG
only has to descend the last step.  On the 800..3000 schedule at alpha* this
takes 61 iterations in all against 100 from the block.

The result is certified by an explicit residual |K v - lambda v|, taken with
the matvec, instead of trusting backend defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import BackflowKernel

_RESIDUAL_FACTOR = 1e-10

# Modes of the leading block whose lowest eigenvector starts LOBPCG; a kernel
# of at most this many modes is its own start block.  np.linalg.eigh is
# LAPACK dsyevd, which for n <= 25 (its divide-and-conquer cutoff, SMLSIZ)
# stays on the QL path and calls no level-3 BLAS.  From n = 26 on, its dgemm
# calls hand work to OpenBLAS's worker threads, which then busy-wait; with
# one start-block eigh every few ms they never sleep, and bill a second core
# for the whole run, competing with a sweep's worker processes.  A 64-mode block
# would save about a tenth of the LOBPCG iterations (90 against 100 on the
# 800..3000 schedule at alpha*).
_START_BLOCK = 25
# LOBPCG stops at a residual of 1e-14 * (max|sin a| + max|D|).  The matvec's
# rounding floor is a few 1e-16 times that, because its two Toeplitz terms
# are each about max|sin a| |x| and largely cancel.  For max|D| >= 1 this is
# at least 5e3 times below the certificate, and the eigenvector then matches dense
# eigh to about 1e-13 (1e-11 at a factor 1e-12), which <E> and the current,
# weighted towards high modes, need.  1 + max|D| in place of max|sin a| +
# max|D| stopped above the certificate at alpha = 1e-10, N = 10000.  The
# hardest points tried, 1e-6 <= alpha <= 1e-2 at N <= 10000 and beta = 0 or
# -1/2, took up to 84 iterations.
_LOBPCG_TOL_FACTOR = 1e-14
_LOBPCG_MAXITER = 500
# Rayleigh-Ritz takes the Gram matrix of its unit-length basis as not positive
# definite when a Cholesky pivot is at or below this.  Its entries carry
# rounding of about 1e-16, so a squared pivot near that says nothing, and
# Rayleigh-Ritz would amplify the operator's rounding by 1/pivot^2: iterated
# past convergence with [x, w, p] confined to a plane, LOBPCG accepted pivots
# of 1e-8 and its Ritz values ran off below -1e154.
_GRAM_PIVOT_MIN = 1e-6


class EigenSolveError(RuntimeError):
    """Eigensolver failed to produce a certified smallest eigenpair."""


@dataclass(frozen=True)
class EigenResult:
    lambda_min: float
    eigenvector: np.ndarray
    n_trunc: int
    residual_norm: float
    method: str
    iterations: int
    # how LOBPCG started; run diagnostics, so to_record leaves it out
    warm_started: bool = False

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
    vals, vecs = np.linalg.eigh(a)
    return float(vals[0]), vecs[:, 0]


def _rayleigh_ritz(basis: np.ndarray, images: np.ndarray):
    """Lowest Ritz value and coefficients on the rows of basis, images = A basis.

    None when the Gram matrix of the rows is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(basis @ basis.T)
    except np.linalg.LinAlgError:
        return None
    # written so that a NaN pivot fails too
    if not chol.diagonal().min() > _GRAM_PIVOT_MIN:
        return None
    inv = np.linalg.inv(chol)
    proj = basis @ images.T
    lam, z = _lowest_dense(inv @ ((proj + proj.T) / 2) @ inv.T)
    return lam, inv.T @ z


def _lobpcg(apply, x, precond, tol) -> tuple[float, np.ndarray, int]:
    """Single-vector LOBPCG (Knyazev 2001): lowest Ritz pair and iteration count.

    Each iteration applies A once, to w, the preconditioned residual made
    orthogonal to x, and does Rayleigh-Ritz on [x, w, p], p the previous
    update; p is left out of a step whose Gram matrix is not positive
    definite (_GRAM_PIVOT_MIN).  Stops when |A x - lambda x| <= tol, after
    _LOBPCG_MAXITER iterations, or when Rayleigh-Ritz fails on [x, w] too,
    and returns the last pair: min_eigen's residual certificate judges it.
    """
    x = x / np.linalg.norm(x)
    ax = apply(x)
    lam = float(x @ ax)
    p = ap = None
    for iterations in range(_LOBPCG_MAXITER + 1):
        r = ax - lam * x
        if iterations == _LOBPCG_MAXITER or np.linalg.norm(r) <= tol:
            break
        w = precond * r
        w -= x * (x @ w)
        w /= np.linalg.norm(w)
        basis, images = np.array([x, w]), np.array([ax, apply(w)])
        norm = 0.0 if p is None else np.linalg.norm(p)
        if norm > 0.0:
            basis, images = np.vstack([basis, p / norm]), np.vstack([images, ap / norm])
        ritz = _rayleigh_ritz(basis, images)
        if ritz is None and len(basis) == 3:
            basis, images = basis[:2], images[:2]
            ritz = _rayleigh_ritz(basis, images)
        if ritz is None:
            break
        lam, y = ritz
        p, ap = y[1:] @ basis[1:], y[1:] @ images[1:]
        x, ax = y[0] * x + p, y[0] * ax + ap
    return lam, x, iterations


def _padded_start(start, size: int) -> np.ndarray:
    """start as a length-size vector, zeros after its own entries."""
    x = np.asarray(start, dtype=float)
    if x.ndim != 1 or not 1 <= x.shape[0] <= size:
        raise ValueError(f"start must be a vector of 1..{size} entries, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or not np.any(x):
        raise ValueError("start must be finite and not all zero")
    padded = np.zeros(size)
    padded[: x.shape[0]] = x
    return padded


def _lowest_lobpcg(
    kernel: BackflowKernel, scale: float, start: np.ndarray | None
) -> tuple[float, np.ndarray, int]:
    """LOBPCG's lowest pair and iteration count from start, or from the
    start block's eigenvector when start is None; scale is max|D|."""
    if start is None:
        block = min(_START_BLOCK, kernel.size)
        start = np.zeros(kernel.size)
        start[:block] = _lowest_dense(kernel.leading_block(block).dense())[1]
    precond = 1.0 / (kernel.diagonal() + 1.0)
    tol = _LOBPCG_TOL_FACTOR * (np.max(np.abs(kernel.sin_phase)) + scale)
    return _lobpcg(kernel.matvec, start, precond, tol)


def min_eigen(kernel: BackflowKernel, start=None) -> EigenResult:
    """Smallest eigenvalue and eigenvector of a kernel, by LOBPCG at every size.

    start, if given, is a finite, nonzero vector of at most kernel.size
    entries, padded with zeros; it replaces the start block's eigenvector on
    a kernel of more than 25 modes (warm_started is then True) and is
    ignored on a smaller one.  Typically it is the eigenvector of a leading
    block of the same kernel.  ValueError for any other start.

    method is always "lobpcg"; iterations counts LOBPCG steps, 0 when the
    start vector already meets the tolerance.  The eigenvector is unit-norm
    with its first nonzero component positive.  n_trunc is the highest index,
    size - 1 (the kernel's truncation N).  The residual |K v - lambda v|,
    taken with the matvec, must stay below 1e-10 times the largest diagonal
    magnitude, otherwise EigenSolveError is raised.
    """
    if start is not None:
        start = _padded_start(start, kernel.size)
    if kernel.size <= _START_BLOCK:
        start = None  # the exact dense start
    # the operator's diagonal is bitwise the dense one
    scale = float(np.max(np.abs(kernel.diagonal()))) or 1.0
    lam, vec, iterations = _lowest_lobpcg(kernel, scale, start)
    n_trunc = vec.shape[0] - 1

    vec = _sign_normalize(np.ascontiguousarray(vec))
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(kernel.matvec(vec) - lam * vec))
    if not residual <= _RESIDUAL_FACTOR * scale:
        raise EigenSolveError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * {scale:.3e} "
            f"(N={n_trunc}, lobpcg)"
        )
    vec.setflags(write=False)
    return EigenResult(
        lambda_min=lam,
        eigenvector=vec,
        n_trunc=n_trunc,
        residual_norm=residual,
        method="lobpcg",
        iterations=iterations,
        warm_started=start is not None,
    )

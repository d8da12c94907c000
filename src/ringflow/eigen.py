"""Smallest eigenpair of a real symmetric matrix: the package's one eigensolver.

Every eigenvalue in the package comes from here: truncated backflow kernels,
and the half-line Nystrom matrix of the line limit, which is a ring kernel
too.  One path at every size, numpy only: a single-vector LOBPCG (Knyazev,
SIAM J. Sci. Comput. 23 (2001) 517) on the kernel's FFT matvec, with the
diagonal preconditioner 1/max(D, 1) and a start vector from LAPACK's eigh on
the start block, the entries on the first _START_BLOCK = 25 modes, which
kernel_entries evaluates at the kernel's (alpha, beta); O(N) memory beyond
that block.  A kernel of at most 25 modes is its own start block, so there
the start vector is dense eigh's eigenvector, and on every kernel tried
LOBPCG stops at iteration 0.  The block is 25 modes because LAPACK's dsyevd
makes no level-3 BLAS call up to that size, so the start vector wakes no
OpenBLAS worker thread.  Importing ringflow before numpy loads OpenBLAS with
one thread and so with no worker; the block size matters where numpy was
loaded first or the caller asked for more threads.

The preconditioner is the identity on modes with D_m < 1 and Jacobi above
them: the off-diagonal part of K has norm at most 1 (Hilbert's inequality),
so below D_m = 1 the diagonal does not set a row's scale.  1/(D + 1)
over-damped the low modes: it took 71 iterations in place of 56 on the ring
route's alpha = 1e-3, N = 1000, and 100 in place of 84 over cold solves of
the 800..3000 schedule at alpha*.

One LOBPCG step costs one matvec, one Gram product, a 3 x 3 Rayleigh-Ritz
and about fifteen numpy calls on length-N rows.  The pairs (x, K x),
(w, K w) and (p, K p) are the contiguous (2, N) blocks of one (3, 2, N)
array allocated per solve; its product with the rows [x, w, p] gives both
their Gram matrix and K projected on them, and each pair is then updated in
place by one call.  Rayleigh-Ritz runs on Python floats: an unrolled Cholesky
factor of the Gram matrix, its triangular inverse and the congruence, with
only the reduced 3 x 3 matrix passed to eigh; the step's norms and inner
products are Python floats too.  Beyond its matvec a step then costs about
24 us up to N = 106 and 70 us at N = 4000, against 40 and 94 us with numpy's
linalg on the small matrices (best of 60 runs, one BLAS thread, on a shared
2-core host where the matvec took 19 and 190 us).

A caller that solves one (alpha, beta) at increasing N (a truncation
ladder) passes each solve's eigenvector as the next one's start, in place of
the 25-mode block.  The kernel on N modes is the leading block of the kernel
on any N' > N modes, so that vector, padded with zeros, has Rayleigh quotient
lambda(N) at N', and lambda(N') <= lambda(N) by Cauchy interlacing; LOBPCG
only has to descend the last step.  On the 800..3000 schedule at alpha* this
takes 50 iterations in all against 84 from the block.

The result is certified by an explicit residual |K v - lambda v|, taken with
the matvec, instead of trusting backend defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import BackflowKernel, kernel_entries

_RESIDUAL_FACTOR = 1e-10

# Modes of the leading block whose lowest eigenvector starts LOBPCG; a kernel
# of at most this many modes is its own start block.  np.linalg.eigh is
# LAPACK dsyevd, which for n <= 25 (its divide-and-conquer cutoff, SMLSIZ)
# stays on the QL path and calls no level-3 BLAS.  From n = 26 on, its dgemm
# calls hand work to OpenBLAS's worker threads, which then busy-wait; with
# one start-block eigh every few ms they never sleep, and bill a second core
# for the whole run, competing with a sweep's worker processes.  OpenBLAS has
# such workers only where numpy was loaded before ringflow, or the caller
# asked for more than one thread (see ringflow/__init__.py).  A 64-mode block
# would save about a tenth of the LOBPCG iterations (90 against 100 on the
# 800..3000 schedule at alpha*).
_START_BLOCK = 25
# LOBPCG stops at a residual of 1e-14 * (max|sin a| + max|D|).  The matvec's
# rounding floor is a few 1e-16 times that, because its two Toeplitz terms
# are each about max|sin a| |x| and largely cancel.  For max|D| >= 1 this is
# at least 5e3 times below the certificate.  Where the last step lands sets
# the eigenvector's error: over alpha/pi in {0.05, 0.2, 0.3703965, 0.6, 1.3},
# beta in {0, -0.4} and N in {400, 1000, 2000} it is at most 2.6e-12 in any
# entry against dense eigh, median 9.6e-14 (at a factor 1e-12, 6.5e-10 and
# 1.5e-11), which <E> and the current, weighted towards high modes, need.
# 1 + max|D| in place of max|sin a| + max|D| stopped above the certificate
# at alpha = 1e-10, N = 10000.  The hardest points tried, 1e-10 <= alpha <=
# 0.1 at 300 <= N <= 10000 and beta = 0 or -1/2, took up to 89 iterations,
# at alpha = 1e-3 and N = 3000 to 10000.
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
    iterations: int
    # how LOBPCG started: a run diagnostic, which the eigen.json record leaves out
    warm_started: bool = False

    @property
    def diagnostics(self) -> dict:
        """How the solve went, for a run manifest: N, LOBPCG iterations, the
        certified residual and whether a start vector was passed in."""
        return {"n": self.n_trunc, "iterations": self.iterations,
                "residual_norm": self.residual_norm, "warm_started": self.warm_started}


def _phase_normalize(c: np.ndarray) -> np.ndarray:
    for x in c:
        if abs(x) > 1e-12:
            return c * (np.conj(x) / abs(x))
    return c.copy()


def _lowest_dense(a: np.ndarray) -> tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eigh(a)
    return float(vals[0]), vecs[:, 0]


def _pivot(square):
    """A Cholesky pivot sqrt(square), or None when it is at or below
    _GRAM_PIVOT_MIN; written so that a NaN fails too."""
    if square > 0.0:
        pivot = math.sqrt(square)
        if pivot > _GRAM_PIVOT_MIN:
            return pivot
    return None


def _rayleigh_ritz(gram, proj):
    """Lowest Ritz value and coefficients on a basis of 2 or 3 vectors, as
    Python floats, from its Gram matrix gram[i][j] = b_i . b_j (only the lower
    triangle is read) and proj[i][j] = (A b_i) . b_j.

    With gram = L L^T, the Ritz pairs are the eigenpairs of
    H = L^-1 S L^-T, S = (proj + proj^T)/2, mapped back by L^-T.  The
    Cholesky factor, its inverse m = L^-1 and the congruence are unrolled on
    Python floats, with the width-2 case as their leading block: numpy's
    linalg wrappers take about 10 us a call on these sizes.  Only H goes to
    _lowest_dense.  None when gram is not positive definite (_pivot).
    """
    l00 = _pivot(gram[0][0])
    if l00 is None:
        return None
    l10 = gram[1][0] / l00
    l11 = _pivot(gram[1][1] - l10 * l10)
    if l11 is None:
        return None
    m00, m11 = 1.0 / l00, 1.0 / l11
    m10 = -(l10 * m00) * m11
    s00, s11, s10 = proj[0][0], proj[1][1], (proj[1][0] + proj[0][1]) / 2
    # t = m S and H = t m^T, lower triangles: m is lower triangular
    t00 = m00 * s00
    t10, t11 = m10 * s00 + m11 * s10, m10 * s10 + m11 * s11
    h00, h10, h11 = t00 * m00, t10 * m00, t10 * m10 + t11 * m11
    if len(gram) == 2:
        lam, z = _lowest_dense(np.array([[h00, h10], [h10, h11]]))
        z0, z1 = z.tolist()
        return lam, [m00 * z0 + m10 * z1, m11 * z1]
    l20 = gram[2][0] / l00
    l21 = (gram[2][1] - l20 * l10) / l11
    l22 = _pivot(gram[2][2] - l20 * l20 - l21 * l21)
    if l22 is None:
        return None
    m22 = 1.0 / l22
    m21 = -(l21 * m11) * m22
    m20 = -(l20 * m00 + l21 * m10) * m22
    s22, s20, s21 = proj[2][2], (proj[2][0] + proj[0][2]) / 2, (proj[2][1] + proj[1][2]) / 2
    t20 = m20 * s00 + m21 * s10 + m22 * s20
    t21 = m20 * s10 + m21 * s11 + m22 * s21
    t22 = m20 * s20 + m21 * s21 + m22 * s22
    h20, h21 = t20 * m00, t20 * m10 + t21 * m11
    h22 = t20 * m20 + t21 * m21 + t22 * m22
    lam, z = _lowest_dense(np.array([[h00, h10, h20], [h10, h11, h21], [h20, h21, h22]]))
    z0, z1, z2 = z.tolist()
    return lam, [m00 * z0 + m10 * z1 + m20 * z2, m11 * z1 + m21 * z2, m22 * z2]


def _lobpcg(apply, start, precond, tol) -> tuple[float, np.ndarray, int]:
    """Single-vector LOBPCG (Knyazev 2001): lowest Ritz pair and iteration count.

    Each iteration applies A once, to w, the preconditioned residual made
    orthogonal to x, and does Rayleigh-Ritz on the unit vectors [x, w, p], p
    the previous update; p is left out of a step whose Gram matrix is not
    positive definite (_GRAM_PIVOT_MIN).  (x, A x), (w, A w) and (p, A p)
    are the three (2, N) blocks of one array, so one product with [x, w, p]
    gives both the Gram matrix and the projection of A, and the updates run
    in place, a pair at a time.
    Stops when |A x - lambda x| <= tol, after _LOBPCG_MAXITER iterations, or
    when Rayleigh-Ritz fails on [x, w] too, and returns the last pair:
    min_eigen's residual certificate judges it.
    """
    pairs = np.zeros((3, 2, start.shape[0]))
    (x, ax), (w, aw), (p, ap) = pairs_x, pairs_w, pairs_p = pairs
    rows, basis = pairs.reshape(6, -1), pairs[:, 0]
    np.divide(start, math.sqrt(start @ start), out=x)
    ax[:] = apply(x)
    lam = float(x @ ax)
    width = 2  # basis vectors in use: p joins after the first update
    for iterations in range(_LOBPCG_MAXITER + 1):
        # w holds the residual A x - lambda x until it is preconditioned
        np.multiply(x, lam, out=w)
        np.subtract(ax, w, out=w)
        if iterations == _LOBPCG_MAXITER or math.sqrt(w @ w) <= tol:
            break
        w *= precond
        # aw is free until w's image is taken: it holds the part of w along x
        w -= np.multiply(x, float(x @ w), out=aw)
        w /= math.sqrt(w @ w)
        aw[:] = apply(w)
        # rows x, A x, w, A w, p, A p against columns x, w, p
        products = (rows @ basis.T).tolist()
        ritz = _rayleigh_ritz(products[0:2 * width:2], products[1:2 * width:2])
        if ritz is None and width == 3:
            width = 2
            ritz = _rayleigh_ritz(products[0:4:2], products[1:4:2])
        if ritz is None:
            break
        lam, (y_x, y_w, *y_p) = ritz
        if y_p:
            pairs_p *= y_p[0]
            # w and A w are not read again before the next step overwrites them
            pairs_p += np.multiply(pairs_w, y_w, out=pairs_w)
        else:
            np.multiply(pairs_w, y_w, out=pairs_p)
        pairs_x *= y_x
        pairs_x += pairs_p
        norm = math.sqrt(p @ p)
        if norm > 0.0:
            pairs_p /= norm
        width = 3 if norm > 0.0 else 2
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


def min_eigen(kernel: BackflowKernel, start=None) -> EigenResult:
    """Smallest eigenvalue and eigenvector of a kernel, by LOBPCG at every size.

    start, if given, is a finite, nonzero vector of at most kernel.size
    entries, padded with zeros; it replaces the start block's eigenvector on
    a kernel of more than 25 modes (warm_started is then True) and is
    ignored on a smaller one.  Typically it is the eigenvector of the kernel
    at the same (alpha, beta) and a smaller N.  ValueError for any other start.

    iterations counts LOBPCG steps, 0 when the start vector already meets
    the tolerance.  The eigenvector is unit-norm with its first nonzero
    component positive.  n_trunc is the highest index, size - 1 (the
    kernel's truncation N).  The residual |K v - lambda v|,
    taken with the matvec, must stay below 1e-10 times the largest diagonal
    magnitude, otherwise EigenSolveError is raised.
    """
    if start is not None:
        start = _padded_start(start, kernel.size)
    warm_started = start is not None and kernel.size > _START_BLOCK
    if not warm_started:
        # the start block's eigenvector; on a kernel of at most _START_BLOCK
        # modes it is the exact dense one
        block = min(_START_BLOCK, kernel.size)
        start = np.zeros(kernel.size)
        start[:block] = _lowest_dense(
            kernel_entries(kernel.config.alpha, kernel.config.beta, block))[1]
    # the operator's diagonal is bitwise the dense one
    scale = float(np.max(np.abs(kernel.diagonal()))) or 1.0
    # floored at 1, the bound on the off-diagonal part's norm (Hilbert's
    # inequality): below it the diagonal does not set a row's scale
    precond = 1.0 / np.maximum(kernel.diagonal(), 1.0)
    tol = _LOBPCG_TOL_FACTOR * (np.max(np.abs(kernel.sin_phase)) + scale)
    lam, vec, iterations = _lobpcg(kernel.matvec, start, precond, tol)
    n_trunc = kernel.size - 1

    vec = _phase_normalize(vec)
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
        iterations=iterations,
        warm_started=warm_started,
    )

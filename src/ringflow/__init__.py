"""Quantum-backflow bound for a charged particle on a ring.

Builds the backflow kernel, minimizes the time-integrated probability current
over normalized states via a truncated symmetric eigenproblem with 1/N
extrapolation, and cross-checks every headline constant with independent
oracles (time quadrature, two-mode closed forms, the straight-line limit).
"""

__version__ = "0.1.0"

import os
import sys

# numpy's OpenBLAS starts a worker thread when numpy loads; it busy-waits for
# about 0.13 s of CPU before it sleeps, which bills a second core for the
# first tens of ms of every run, and above 10^4 modes it threads ddot and
# dgemm, whose sums then depend on the thread count.  With one thread OpenBLAS
# starts none.  OpenBLAS reads the variable once, as numpy loads: after that
# setting it would change nothing but what the manifest records, so a caller
# who loaded numpy first keeps its threads.  A value the caller set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .eigen import EigenResult, EigenSolveError, min_eigen
from .extrapolate import (
    DEFAULT_SWEEP_SCHEDULE,
    REFERENCE_SCHEDULE,
    ExtrapolationFit,
    extrapolated_infimum,
    fit_quadratic,
)
from .kernel import (
    BackflowKernel,
    RingConfig,
    build_kernel,
    canonicalize,
    integrated_current,
    kernel_entries,
    sinc,
)
from .linelimit import LineLimitResult, line_limit_min, ring_small_alpha_limit
from .state import (
    CurrentSeries,
    ModeAmplitudes,
    current_series,
    make_state,
    maximizing_state,
    mean_energy,
    time_quadrature_p,
)
from .sweep import InfimumResult, SweepRecord, find_infimum, sweep_alpha
from .twomode import (
    TwoModeResult,
    global_two_mode_min,
    minimize_two_mode,
    two_mode_p,
    two_mode_p_min,
)

__all__ = [
    "BackflowKernel",
    "CurrentSeries",
    "DEFAULT_SWEEP_SCHEDULE",
    "EigenResult",
    "EigenSolveError",
    "ExtrapolationFit",
    "InfimumResult",
    "LineLimitResult",
    "ModeAmplitudes",
    "REFERENCE_SCHEDULE",
    "RingConfig",
    "SweepRecord",
    "TwoModeResult",
    "build_kernel",
    "canonicalize",
    "current_series",
    "extrapolated_infimum",
    "find_infimum",
    "fit_quadratic",
    "global_two_mode_min",
    "integrated_current",
    "kernel_entries",
    "line_limit_min",
    "make_state",
    "maximizing_state",
    "mean_energy",
    "min_eigen",
    "minimize_two_mode",
    "ring_small_alpha_limit",
    "sinc",
    "sweep_alpha",
    "time_quadrature_p",
    "two_mode_p",
    "two_mode_p_min",
]

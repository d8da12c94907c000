"""Run manifests: what was run, with which parameters, producing which files.

The package's two file writers live here too, _write_json and _write_csv:
every data file and every manifest goes through one of them.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

# variables that set how many threads BLAS and OpenMP use, and how many worker
# processes a sweep may fork
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RINGFLOW_JOBS")


def _write_json(path, obj) -> None:
    """obj as indented, key-sorted JSON with a closing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path, head: str, *columns) -> None:
    """head, then one row per index of the columns, each value as %.17g, in
    one % operation on Python floats: the same bytes as formatting row by row,
    at about half the time on a 4001-row series.  An integer-valued column
    below 1e17, such as a mode number, prints as integers."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    Path(path).write_text(head + (row * len(columns[0])) % tuple(values))


def peak_rss_mb(status="/proc/self/status") -> float | None:
    """This process's peak resident set size in MiB, from the VmHWM line of
    Linux's /proc/self/status; None where that file or line is missing."""
    try:
        lines = Path(status).read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the line is in kB
    return None


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    tool_version: str = __version__
    started: str = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )
    finished: str | None = None
    outputs: list = field(default_factory=list)
    # how the results were obtained, e.g. per-solve iterations and residuals
    diagnostics: dict = field(default_factory=dict)
    thread_env: dict = field(
        init=False,
        default_factory=lambda: {name: os.environ.get(name) for name in THREAD_VARIABLES},
    )
    # the process's peak RSS in MiB when the manifest is written (peak_rss_mb)
    peak_rss_mb: float | None = field(init=False, default=None)

    def add_output(self, path) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256_of(path)})

    def write(self, path) -> None:
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.peak_rss_mb = peak_rss_mb()
        # every field, without the deep copy dataclasses.asdict would make
        _write_json(path, vars(self))

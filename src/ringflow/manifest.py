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


def _write_csv(path, head: str, row: str, *columns) -> None:
    """head, then every row of the columns formatted by row in one % operation
    on Python floats (%d prints an integer-valued one as an int); the same
    bytes as formatting row by row, at about half the time on a 4001-row series."""
    values = np.column_stack(columns).ravel().tolist()
    Path(path).write_text(head + (row * len(columns[0])) % tuple(values))


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

    def add_output(self, path) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256_of(path)})

    def write(self, path) -> None:
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        # every field, without the deep copy dataclasses.asdict would make
        _write_json(path, vars(self))

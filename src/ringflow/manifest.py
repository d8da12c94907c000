"""Run manifests: what was run, with which parameters, producing which files."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

# variables that set how many threads BLAS and OpenMP use, and how many worker
# processes a sweep may fork
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "RINGFLOW_JOBS")


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
        Path(path).write_text(
            json.dumps(
                {
                    "command": self.command,
                    "parameters": self.parameters,
                    "tool_version": self.tool_version,
                    "started": self.started,
                    "finished": self.finished,
                    "outputs": self.outputs,
                    "diagnostics": self.diagnostics,
                    "thread_env": self.thread_env,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )

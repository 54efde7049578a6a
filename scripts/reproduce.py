#!/usr/bin/env python
"""Regenerate the reproduction record: ``docs/reproduction.json`` and
``docs/REPRODUCTION.md``.

Runs every experiment driver at the ``DEFAULT`` preset over seeds 0–4 and
judges each of the paper's claims (``repro.experiments.reproduction``) at
every seed.  Takes no flags; expect about 20 minutes on two cores::

    python scripts/reproduce.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# Pin BLAS to one thread before anything imports numpy, as bench/run.py
# does, so the recorded seconds do not depend on the host's core count.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.reproduction import build_record, render_record  # noqa: E402


def commit() -> str:
    """HEAD's sha, with ``-dirty`` when the tree has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD") + (
            "-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    record = build_record(commit())
    docs = os.path.join(ROOT, "docs")
    with open(os.path.join(docs, "reproduction.json"), "w",
              encoding="utf-8", newline="\n") as stream:
        stream.write(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    with open(os.path.join(docs, "REPRODUCTION.md"), "w",
              encoding="utf-8", newline="\n") as stream:
        stream.write(render_record(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

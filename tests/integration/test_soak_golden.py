"""Golden test: a fixed soak leaves the same journal and result file.

A soak stream is a pure function of its configuration and round
count, so a fixed soak (graph target, timber-ff, 4,000 cycles, 3
rounds of 200 faults, seed 2010) pins two things: the SHA-256 of its
journal bytes, and its ``--out`` result file with the wall-clock
fields left out.  It runs once in process through
:func:`repro.cli.main` and once as a ``python -m repro.cli``
subprocess, whose interpreter exit skips the final heap sweep, so the
test also shows that exit leaves complete, identical files.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.kernels import HAVE_NUMPY

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="soak chunks draw through the vector kernels")

ARGV = ["soak", "--target", "graph", "--scheme", "timber-ff",
        "--cycles", "4000", "--rounds", "3", "--faults-per-round", "200",
        "--seed", "2010", "--no-cache", "--quiet",
        "--journal", "journal.jsonl", "--checkpoint", "soak-cp.json",
        "--out", "out.json"]

JOURNAL_SHA256 = (
    "de3efe3c6f4f1d7b2166f27c48703498df80ae1d213f4719af928c74a07870ac")
#: SHA-256 of the result file's canonical JSON, wall-clock fields out.
OUT_SHA256 = (
    "81267d3da8e3dce69eb00013a51550447271160ff395f73cc1b26180cdd65d96")
#: Result fields that measure time, not the stream.
WALL_CLOCK_FIELDS = ("wall_time_s", "faults_per_second")


def _check(workdir: pathlib.Path) -> None:
    journal = (workdir / "journal.jsonl").read_bytes()
    assert hashlib.sha256(journal).hexdigest() == JOURNAL_SHA256
    out = json.loads((workdir / "out.json").read_text(encoding="utf-8"))
    for field in WALL_CLOCK_FIELDS:
        del out[field]
    assert (out["rounds"], out["total_faults"], out["stop_reason"],
            out["drained"], out["faults_evaluated"]) == (
        3, 600, "max_rounds", False, 600)
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode(
        "utf-8")).hexdigest() == OUT_SHA256


def test_in_process_soak_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(ARGV) == 0
    capsys.readouterr()
    _check(tmp_path)


def test_cli_process_soak_matches_golden(tmp_path):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-m", "repro.cli", *ARGV],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    _check(tmp_path)

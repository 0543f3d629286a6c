"""CLI outputs pinned across commits.

``tests/golden/cli.json`` holds the sha256 of standard output and the
exit code of eight short ``repro`` runs, one per matched-run experiment
family plus the cluster study and Table I, and Table I and recovery
again through a two-worker pool (same digests as their serial runs).  Each case reruns through
:func:`repro.cli.main` in-process and must reproduce both exactly, so a
refactor that moves any reported number fails here.  Regenerate an entry
only when a change means to move that result.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN,
                         ids=["_".join(case["argv"]) for case in GOLDEN])
def test_stdout_and_exit_code_match_golden(case, capsys):
    code = main(case["argv"])
    stdout = capsys.readouterr().out
    assert code == case["exit_code"]
    assert hashlib.sha256(stdout.encode()).hexdigest() \
        == case["stdout_sha256"]

"""Table I pinned at full precision.

``tests/golden/cli.json`` hashes ``repro table1``'s rounded text, so a
last-bit change in a score would pass it.  ``tests/golden/table1_scores.json``
holds the sha256 of the canonical JSON of every :class:`PolicyScore`
(``dataclasses.asdict``) that :func:`table1_streaming` returns over one
rack per cluster class and three weeks (two evaluation weeks; the High-
and Medium-Power racks cap hundreds of times).  Serial and two-worker
sweeps must both reproduce it.  Regenerate it only when a change means
to move a Table-I score.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.largescale import (
    cluster_class_fleet_configs,
    table1_streaming,
)

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "golden" / "table1_scores.json").read_text())


def scores_sha256(workers: int) -> str:
    scores = table1_streaming(
        cluster_class_fleet_configs(**GOLDEN["configs"]), workers=workers)
    payload = {cluster: {policy: dataclasses.asdict(score)
                         for policy, score in rows.items()}
               for cluster, rows in scores.items()}
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_scores_match_golden(workers):
    assert scores_sha256(workers) == GOLDEN["scores_sha256"]

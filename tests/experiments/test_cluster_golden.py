"""The full §V-A cluster study, pinned bit for bit.

``tests/golden/cluster_7200.json`` holds, per environment, the sha256 of
``json.dumps(dataclasses.asdict(result), sort_keys=True)`` for
``run_environment(env, ClusterConfig(duration_s=7200, seed=1))``.  json
writes floats by ``repr``, so every bit of every reported number is
pinned — including the load peak (2,400-4,800 s) with its overclock
grants, scale-outs and overloaded ticks, which the CLI golden's 600 s
cluster run ends before.  Regenerate an entry only when a change means to
move that result.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.cluster import ENVIRONMENTS, ClusterConfig, run_environment

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "golden" / "cluster_7200.json").read_text())


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_result_matches_golden(environment):
    result = run_environment(environment,
                             ClusterConfig(duration_s=7200.0, seed=1))
    body = json.dumps(dataclasses.asdict(result), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN[environment]

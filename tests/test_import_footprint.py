"""Importing the Table-I sweep must not load the tick-driven platform.

The package ``__init__`` files carry docstrings only, so importing
``repro.experiments.largescale`` (what every Table-I run and pool worker
does first) loads the trace path's own modules and nothing of the
platform, the recovery lifecycle, fault injection or the workload
models.  Checked in a fresh interpreter, since this test session has
imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Exact modules and package prefixes the import must leave unloaded.
FORBIDDEN = ("repro.core.soa", "repro.core.platform",
             "repro.recovery.lifecycle", "repro.faults", "repro.workloads")


def test_largescale_import_leaves_the_platform_unloaded():
    code = ("import json, sys; import repro.experiments.largescale; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('repro'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    loaded = json.loads(out)
    assert "repro.experiments.largescale" in loaded
    leaked = [m for m in loaded
              if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert not leaked, leaked

"""A serving process loads only the serving stack.

Each entry point is imported in a fresh interpreter, which prints every
module it loaded. None of them may load numpy or the paper harness: the
workload generators, the analysis and rendering code, the spmv kernels,
Table 1's compaction harness, the load generator or the test harness.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

FORBIDDEN = ("numpy", "repro.workloads", "repro.analysis", "repro.apps.spmv",
             "repro.apps.memcached.compaction", "repro.net.loadgen",
             "repro.testing")


def loaded_modules(module: str):
    """``sorted(sys.modules)`` of a fresh interpreter that imported
    ``module``."""
    src = pathlib.Path(repro.__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
    result = subprocess.run(
        [sys.executable, "-c",
         "import importlib, json, sys\n"
         "importlib.import_module(%r)\n"
         "print(json.dumps(sorted(sys.modules)))" % module],
        capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


@pytest.mark.parametrize("module", ["repro.net.server", "repro.replication",
                                    "repro.cluster", "repro.cli.main"])
def test_entry_point_loads_no_harness(module):
    leaked = [name for name in loaded_modules(module)
              if any(name == root or name.startswith(root + ".")
                     for root in FORBIDDEN)]
    assert leaked == []

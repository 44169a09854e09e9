"""A serving process loads only the serving stack, and nothing needs numpy.

Each entry point is imported in a fresh interpreter, which prints every
module it loaded. None of them may load numpy or the paper harness: the
workload generators, the analysis and rendering code, the spmv kernels,
Table 1's compaction harness or the test harness (whose recording
clients are the only load client).
A last fresh interpreter blocks numpy outright, then imports every
module of the package and runs the SpMV harness and the dense helpers.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

FORBIDDEN = ("numpy", "repro.workloads", "repro.analysis", "repro.apps.spmv",
             "repro.apps.memcached.compaction", "repro.testing")


def run_fresh(code: str) -> str:
    """The stdout of a fresh interpreter that ran ``code``."""
    src = pathlib.Path(repro.__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def loaded_modules(module: str):
    """``sorted(sys.modules)`` of a fresh interpreter that imported
    ``module``."""
    return json.loads(run_fresh(
        "import importlib, json, sys\n"
        "importlib.import_module(%r)\n"
        "print(json.dumps(sorted(sys.modules)))" % module))


@pytest.mark.parametrize("module", ["repro.net.server", "repro.replication",
                                    "repro.cluster", "repro.cli.main"])
def test_entry_point_loads_no_harness(module):
    leaked = [name for name in loaded_modules(module)
              if any(name == root or name.startswith(root + ".")
                     for root in FORBIDDEN)]
    assert leaked == []


WITHOUT_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import repro
names = [info.name for info in
         pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)

from repro.apps.spmv.algebra import parallel_spmv
from repro.apps.spmv.kernels import (best_hicamp_footprint, spmv_comparison,
                                     spmv_machine)
from repro.structures import QuadTreeMatrix
from repro.workloads.matrices import fem_2d

spec = fem_2d(4, "f")
hicamp, _ = spmv_comparison(spec)  # cross-checks the two checksums
assert best_hicamp_footprint(spec) == (hicamp.fmt, hicamp.footprint_bytes)

dense = [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.5, 3.0, 0.0]]
qt = QuadTreeMatrix.from_dense(spmv_machine(), dense)
assert qt.to_dense() == dense
assert qt.spmv([1.0, 2.0, 4.0]) == [9.0, 0.0, 6.5]
machine = spmv_machine()
square = QuadTreeMatrix.from_coo(machine, 4, 4,
                                 [(i, (i + 1) % 4, i + 1.0) for i in range(4)])
assert parallel_spmv(machine, square, [1.0] * 4) == [1.0, 2.0, 3.0, 4.0]
print(len(names))
"""


def test_every_module_runs_without_numpy():
    # the walk reached every module on disk: all but repro/__init__.py
    # name a module or a subpackage
    on_disk = pathlib.Path(repro.__file__).parent.rglob("*.py")
    assert int(run_fresh(WITHOUT_NUMPY)) == len(list(on_disk)) - 1

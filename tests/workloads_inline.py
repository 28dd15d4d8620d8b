"""The benchmark's inline problems, read from ``perfbench/workloads.py`` so
the tests run the very definitions the benchmark runs: a tilted quadratic,
a cubic and a boundary maximum, each a ``certlap run --config`` definition."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

# name -> inline definition, in workload order: quad2d, cub2d, bnd2d
INLINE = {p["name"]: p for p in _workloads.WORKLOADS["inline2d"]}

"""Set-up probe: import certlap and build every ProblemSpec of one workload.

    python3 perfbench/probe.py <workload>

run.py times this process from spawn to exit, so the figure includes the
interpreter start-up and the import, as a user of ``certlap run`` pays them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from certlap.config import problem_from_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    for problem in WORKLOADS[sys.argv[1]]:
        problem_from_config(problem)

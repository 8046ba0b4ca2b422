"""The repo's benchmark: four workloads over the bdbms engine.

``python3 -m bench`` (from the repository root) runs it; see README.md in
this directory for the workloads, the metrics and how to compare two runs.
"""

import os
import sys

#: The checkout the benchmark measures: the directory that holds ``bench/``.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The engine runs from source (``src/repro``, no install step).  Where that
# tree is missing, ``import repro`` fails and the command exits non-zero.
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path and os.path.isdir(os.path.join(_SRC, "repro")):
    sys.path.insert(0, _SRC)

"""The two-clock serving benchmark (see ``bench/README.md``).

Everything here measures ``repro`` from outside: nothing under ``src/`` is
edited, every per-layer number comes from timing proxies wrapped around
the objects handed to ``ServeLoop`` or from timed direct calls into public
functions.  ``python3 -m bench.run`` is the only entry point.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# No editable install exists in the benchmark checkout; the package under
# test is imported straight from the source tree next to this directory.
_SRC = str(REPO / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

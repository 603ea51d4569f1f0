import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Tests that start `python -m gradmc.cli` in a child process need the same
# checkout's package there too, whether or not PYTHONPATH was set.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

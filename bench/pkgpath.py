"""Put the checkout's ``src/`` first on ``sys.path``, so that the benchmark
always measures the sources next to it, never an installed copy."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "matchseq" / "__init__.py").is_file():
    raise ImportError(f"matchseq sources not found under {SRC}")
if sys.path[0] != str(SRC):
    sys.path.insert(0, str(SRC))

"""Pytest path setup so benchmark modules can import ``common`` and the
scalar oracles in ``tests.reference``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent))

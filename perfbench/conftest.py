"""Puts the repository's ``src`` tree on the path for the harness tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

"""Make the benchmark's modules and the repository's sources importable."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_BENCH))

from common import prepare_environment  # noqa: E402

prepare_environment()

import sys
from pathlib import Path

# the benchmark tests import helmdd from this checkout, as run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

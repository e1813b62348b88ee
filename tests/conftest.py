import sys
from pathlib import Path

# make the suite runnable without an install; bench/ holds the independent
# oracle and the input generators, and bench/workloads.py does `import oracle`
ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "bench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

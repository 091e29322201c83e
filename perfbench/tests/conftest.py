import sys
from pathlib import Path

# The benchmark's modules are plain scripts beside run.py, imported by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

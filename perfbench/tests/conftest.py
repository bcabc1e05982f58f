"""Make the benchmark's modules importable as top-level names.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

"""Benchmark harness configuration.

Each ``test_*`` module regenerates one table or figure of the paper
(printed to stdout, captured in bench_output.txt) while pytest-benchmark
times the underlying computation. Run with::

    pytest benchmarks/ --benchmark-only
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# Test-side reference paths (tests/hhe_reference.py) the comparators use.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

"""Benchmark-suite configuration."""

import sys
import os

# Allow `from figures import ...` from bench files.
sys.path.insert(0, os.path.dirname(__file__))

"""Set-up probe for ``echochain spectral``: the work before its sector loop.

Usage: python3 perfbench/setup_probe.py CONFIG

Imports the CLI, parses the config and builds the Floquet pair, as
``echochain spectral`` does before it diagonalizes the sectors, then exits.
The echochain package must be importable (PYTHONPATH=src).
"""

import sys

import echochain.cli  # noqa: F401  (the import the CLI pays)
from echochain.chain import build_floquet_pair
from echochain.config import parse_config
from echochain.linalg import RngStream

if __name__ == "__main__":
    config = parse_config(sys.argv[1])
    build_floquet_pair(config.chain_params, RngStream(config.seed, 0))

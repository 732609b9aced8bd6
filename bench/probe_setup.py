"""Set-up probe: what every CLI call pays before it computes anything.

    python bench/probe_setup.py CONFIG.yaml

Imports the CLI and loads and validates the config, with ``src`` on
PYTHONPATH; the benchmark times the whole child process.
"""

import sys

if __name__ == "__main__":
    import qecbound.cli  # noqa: F401 - the import is part of what is measured
    from qecbound.config import load_config

    load_config(sys.argv[1])

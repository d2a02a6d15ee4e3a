"""`python -m multisep ...` runs the command line, e.g. from a source
checkout with `PYTHONPATH=src python -m multisep crit --help`."""

import sys

from .cli import main

sys.exit(main())

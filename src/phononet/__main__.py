"""``python -m phononet <experiment> ...``: the same command line as ``phononet``."""

import sys

from .cli import main

sys.exit(main())

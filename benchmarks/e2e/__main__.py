"""``python -m benchmarks.e2e`` entry point."""

import sys

from .cli import main

sys.exit(main())

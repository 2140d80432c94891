"""python -m linwave: the linwave command line (see linwave.cli)."""

from .cli import main

main()

"""``python -m zrs``: the same command line as the ``zrs`` script."""

from .cli import run

run()

"""``python -m weaktensor``: the ``weaktensor`` command."""

from .cli import entry

entry()

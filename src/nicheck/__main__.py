"""Command-line entry for ``python3 -m nicheck``; see `nicheck.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()

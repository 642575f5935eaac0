"""``python -m trackseg``: the same command line as ``trackseg``."""

from .harness.cli import entrypoint

if __name__ == "__main__":
    entrypoint()

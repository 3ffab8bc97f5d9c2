"""Run the command line as `python3 -m irregraph`."""

from irregraph.cli import entrypoint

if __name__ == "__main__":
    entrypoint()

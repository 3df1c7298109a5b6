"""`python -m curvecount ...` runs the command line of the `curvecount` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()

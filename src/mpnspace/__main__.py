"""Run the command line as ``python -m mpnspace``."""

from .cli import run

if __name__ == "__main__":
    run()

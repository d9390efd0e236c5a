"""`python -m posetcat`: the same command line as the `posetcat` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m simplexflow``: the same command line as the ``simplexflow`` script."""

from .cli import main

if __name__ == "__main__":
    main()

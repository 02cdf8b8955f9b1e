"""``python -m orbitcount``: the same entry point as the ``orbitcount`` script."""
from .cli import main

main()

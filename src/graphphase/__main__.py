"""``python -m graphphase``: the ``graphphase`` command."""

from .io_cli import main

main()

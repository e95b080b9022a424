"""``python -m toric_gac`` runs the ``toric-gac`` command line."""

from .cli import main

main()

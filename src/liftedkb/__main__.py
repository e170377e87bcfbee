"""`python -m liftedkb` runs the command-line interface."""

from .cli import main

raise SystemExit(main())

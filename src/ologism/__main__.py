"""``python -m ologism``: the same front end as the ``ologism`` command."""

import sys

from .cli import main

sys.exit(main())

"""Hypothesis runs the same examples on every run and keeps no example
database; its other caches go to the system temporary directory (or
HYPOTHESIS_STORAGE_DIRECTORY), so a test run writes no ``.hypothesis/``
into the checkout.  ``--hypothesis-profile`` still selects another
registered profile."""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

if not os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY"):
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "qsectors-hypothesis"))

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

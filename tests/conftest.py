"""Shared test settings.

Property tests run derandomized (the same examples on every run) and
without a per-example deadline: wall-clock speed on a shared machine
varies too much for a deadline to mean anything.
"""

from hypothesis import settings

settings.register_profile("exact", deadline=None, derandomize=True)
settings.load_profile("exact")

"""Shared test settings.

Hypothesis runs under one registered profile: examples are derandomized
and no example database is read or written, so the property tests draw
the same examples on every run; the per-example deadline is off because
example times vary with the host; and a small example budget keeps the
property tests to a few seconds.
"""

from hypothesis import settings

settings.register_profile(
    "rootcensus", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("rootcensus")

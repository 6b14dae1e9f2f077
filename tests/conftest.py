"""Shared test settings.

Hypothesis runs under one registered profile: examples are derandomized
and no example database is read or written, so the property tests draw
the same examples on every run; the per-example deadline is off because
example times vary with the host; and a small example budget keeps the
property tests to a few seconds.

Every test starts from an empty memo of analyses and root sets
(roots._MEMO), so a test that counts decompositions or certifications
counts its own, alone and in any order.
"""

import pytest
from hypothesis import settings

from rootcensus import roots

settings.register_profile(
    "rootcensus", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("rootcensus")


@pytest.fixture(autouse=True)
def _empty_root_memo():
    roots._MEMO.clear()

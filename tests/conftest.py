"""Fixtures shared by every test module."""

import pytest

from squareprop import corpus


@pytest.fixture(autouse=True)
def fresh_builtins():
    """Each test starts from builtins that no other test has built records
    on: corpus.builtin keeps one object per name for the whole process,
    and a test that counts the records a run builds would otherwise see
    what an earlier test left."""
    corpus.builtin.cache_clear()

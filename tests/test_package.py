"""Tests for the package's public names."""

from collections import Counter

import trackbounds


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(trackbounds.__all__).items() if n > 1] == []
    assert [name for name in trackbounds.__all__ if not hasattr(trackbounds, name)] == []

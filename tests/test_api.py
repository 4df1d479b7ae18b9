"""The package's public surface."""

import hydent


def test_all_is_sorted_unique_and_resolves():
    names = hydent.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hydent, name) is not None, name

import numpy as np
import pytest

from ctrllab import SeedPath


def test_identical_paths_give_identical_streams():
    a = SeedPath(42, ("scenario", 8, 3, "matrix")).generator().random(100)
    b = SeedPath(42, ("scenario", 8, 3, "matrix")).generator().random(100)
    assert np.array_equal(a, b)


def test_child_matches_direct_construction():
    direct = SeedPath(7, ("x", 1, "y"))
    chained = SeedPath(7).child("x").child(1, "y")
    assert direct == chained
    assert np.array_equal(direct.generator().random(10), chained.generator().random(10))


def test_distinct_labels_give_distinct_streams():
    base = SeedPath(123)
    streams = [
        base.child(0).generator().random(8),
        base.child(1).generator().random(8),
        base.child("0").generator().random(8),
        base.child(0, "matrix").generator().random(8),
        SeedPath(124).child(0).generator().random(8),
    ]
    for i in range(len(streams)):
        for j in range(i + 1, len(streams)):
            assert not np.array_equal(streams[i], streams[j])


def test_derivation_order_does_not_matter():
    # Pure derivation: consuming sibling streams in any order leaves each
    # stream's output unchanged.
    root = SeedPath(9, ("exp",))
    first = [root.child(t).generator().random(5) for t in range(4)]
    second = [root.child(t).generator().random(5) for t in reversed(range(4))]
    for t in range(4):
        assert np.array_equal(first[t], second[3 - t])


def test_int_labels_fold_to_64_bits():
    wide = SeedPath(1, (2**64 + 5,))
    narrow = SeedPath(1, (5,))
    assert np.array_equal(wide.generator().random(4), narrow.generator().random(4))


def test_rejects_unhashable_label_types():
    with pytest.raises(TypeError):
        SeedPath(0, (1.5,))
    with pytest.raises(TypeError):
        SeedPath(0).child(True)


class _Int(int):
    """An int subclass: cached under the same untyped key as True."""


def test_label_cache_keeps_types_apart():
    # the memoised label hash is typed: 1 and True hash equal in Python
    base = SeedPath(5)
    base.child(1).generator()
    base.child(_Int(1)).generator()
    with pytest.raises(TypeError, match="bool"):
        base.child(True)
    with pytest.raises(TypeError, match="bool"):
        SeedPath(5, (1, True))
    base.child(5).generator()
    base.child("5").generator()
    assert not np.array_equal(base.child(5).generator().random(8),
                              base.child("5").generator().random(8))
    assert base.child(5).entropy() != base.child("5").entropy()


def test_child_validates_only_what_it_appends(monkeypatch):
    from ctrllab import seeding

    seen = []
    real = seeding._label_words
    monkeypatch.setattr(seeding, "_label_words", lambda label: seen.append(label) or real(label))
    path = SeedPath(0, ("x", 1)).child(2, "y")
    assert seen == ["x", 1, 2, "y"]  # two by the constructor, two by child
    assert path == SeedPath(0, ("x", 1, 2, "y"))
    assert hash(path) == hash(SeedPath(0, ("x", 1, 2, "y")))
    with pytest.raises(TypeError, match="float"):
        path.child(3, 0.5)

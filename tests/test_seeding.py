import random

import numpy as np
import pytest

from ctrllab import SeedPath, seeding


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
    for wide, folded in [(2**64 + 5, 5), (-1, 2**64 - 1), (-(2**63), 2**63)]:
        assert np.array_equal(SeedPath(1, (wide,)).generator().random(4),
                              SeedPath(1, (folded,)).generator().random(4))


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


# ---------------------------------------------------------------------------
# the batched SeedSequence mix against numpy's own
# ---------------------------------------------------------------------------

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64, 2**64 + 5, 2**70 + 3, -1, -(2**63)]
LABELS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 9, 2**64, 2**64 + 7, -1, -(2**40),
          "", "matrix", "vector", "sphere", "conj1", "été"]


def oracle(path: SeedPath) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(path.entropy()))


def assert_same_stream(gen: np.random.Generator, path: SeedPath) -> None:
    ref = oracle(path)
    assert gen.bit_generator.state == ref.bit_generator.state, path
    assert np.array_equal(gen.bit_generator.random_raw(3), ref.bit_generator.random_raw(3))


def random_path(rng: random.Random) -> SeedPath:
    master = rng.choice(MASTERS + [rng.getrandbits(rng.choice((8, 32, 33, 64, 65)))])
    labels = [rng.choice(LABELS + [rng.getrandbits(rng.choice((4, 31, 32, 33, 64, 70)))])
              for _ in range(rng.randint(0, 6))]
    return SeedPath(master, tuple(labels))


def test_streams_match_numpy_seedsequence_one_at_a_time_and_batched():
    rng = random.Random(20260418)
    for _ in range(2000):
        path = random_path(rng)
        assert_same_stream(path.generator(), path)
        # batched below every prefix of the path, with siblings of other lengths
        k = rng.randint(0, len(path.labels))
        base = SeedPath(path.master, path.labels[:k])
        tails = [path.labels[k:], (), path.labels[k:] + (rng.getrandbits(40),),
                 (rng.choice(LABELS),), path.labels[k:]]
        for tail, gen in zip(tails, base.generators(tails)):
            assert_same_stream(gen, base.child(*tail))


@pytest.mark.parametrize("master", MASTERS)
def test_every_master_width_matches_numpy(master):
    for labels in [(), (5,), ("conj1", 16, 3, "matrix"), (2**64 + 1, -2, "x")]:
        path = SeedPath(master, labels)
        assert_same_stream(path.generator(), path)
        assert_same_stream(next(SeedPath(master).generators([labels])), path)


def test_negative_and_wide_masters_fold_to_64_bits():
    for wide, folded in [(-1, 2**64 - 1), (2**64 + 5, 5), (-(2**63), 2**63)]:
        assert np.array_equal(SeedPath(wide, ("a",)).generator().random(4),
                              SeedPath(folded, ("a",)).generator().random(4))


def test_paths_shorter_than_the_pool_match_numpy():
    # one or three entropy words: SeedSequence runs the pool out with zeros
    for path in [SeedPath(5), SeedPath(5).child(7), SeedPath(0), SeedPath(2**32).child(0)]:
        assert len(np.random.SeedSequence(path.entropy()).entropy) <= 3
        assert_same_stream(path.generator(), path)
        assert_same_stream(next(SeedPath(path.master).generators([path.labels])), path)
    tails = [(7,), (), (7, "x"), (2**40,)]
    for tail, gen in zip(tails, SeedPath(5).generators(tails)):
        assert_same_stream(gen, SeedPath(5).child(*tail))


def test_tail_word_cache_keeps_label_types_apart():
    # the words of a tail are cached per label and type: after (1, "m") the
    # equal tuples (True, "m") and (1.0, "m") still raise
    base = SeedPath(1)
    list(base.generators([(1, "m")]))
    with pytest.raises(TypeError, match="bool"):
        base.generators([(True, "m")])
    with pytest.raises(TypeError, match="float"):
        base.generators([(1.0, "m")])
    tails = [(2**32, "m"), (2**64 + 7, 2**40), (1, "m"), (2**32 + 1,), (2**70 + 3, "v")]
    for _ in range(2):  # the words mixed, then read from the cache
        for tail, gen in zip(tails, base.generators(tails)):
            assert_same_stream(gen, base.child(*tail))


def test_one_batch_mixes_one_and_two_word_trial_indices():
    base = SeedPath(1506).child("thm-goe", 10)
    trials = [0, 1, 2**32 - 1, 2**32, 2**32 + 3, 5, 2**63]
    tails = [(t, stream) for t in trials for stream in ("matrix", "vector")]
    gens = list(base.generators(tails))
    assert len(gens) == len(tails)
    for tail, gen in zip(tails, gens):
        assert_same_stream(gen, base.child(*tail))


def test_batch_equals_one_at_a_time_generators():
    base = SeedPath(12345).child("cor-gnp-rand", 16)
    tails = [(t, stream) for t in range(40) for stream in ("matrix", "vector", "sphere")]
    batched = [gen.random(6) for gen in base.generators(iter(tails))]
    alone = [base.child(*tail).generator().random(6) for tail in tails]
    assert all(np.array_equal(a, b) for a, b in zip(batched, alone))
    assert list(base.generators([])) == []


def test_library_never_builds_a_seedsequence(monkeypatch):
    from ctrllab import make_scenario_config, run_experiment

    def forbidden(*args, **kwargs):
        raise AssertionError("np.random.SeedSequence called")

    expected = [SeedPath(9, ("a", 1)).generator().random(3)]
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    assert np.array_equal(SeedPath(9, ("a", 1)).generator().random(3), expected[0])
    for name in ("thm-goe", "cor-gnp-rand", "conj1"):
        run_experiment(make_scenario_config(name, n_grid=(6,), trials=3))


def test_the_seed_of_each_pcg64_is_an_iseedsequence_subclass():
    # a real subclass, not a registered one, so numpy's instance check in
    # PCG64(...) finds it without ABCMeta.__subclasscheck__
    assert np.random.bit_generator.ISeedSequence in seeding._State.__mro__
    gen = SeedPath(9, ("a", 1)).generator()
    assert type(gen.bit_generator.seed_seq) is seeding._State


def test_the_seed_holds_only_pcg64s_four_uint64_words():
    words = np.arange(4, dtype=np.uint64)
    state = seeding._State(words)
    for dtype in (np.uint64, np.dtype(np.uint64), "uint64"):
        assert state.generate_state(4, dtype) is words
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64), (4, "int64")):
        with pytest.raises(ValueError, match="only PCG64's state: 4 words of uint64"):
            state.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="only PCG64's state"):
        state.generate_state(4)


# ---------------------------------------------------------------------------
# master seed validation
# ---------------------------------------------------------------------------

def test_numpy_integer_masters_are_taken_by_value():
    for master in (np.int64(5), np.uint64(5), np.int32(5)):
        path = SeedPath(master)
        assert path == SeedPath(5) and type(path.master) is int
        assert np.array_equal(path.child("x").generator().random(4),
                              SeedPath(5, ("x",)).generator().random(4))
    assert SeedPath(np.uint64(2**64 - 1)) == SeedPath(2**64 - 1)
    assert SeedPath(np.int64(-3)).entropy() == SeedPath(-3).entropy()


@pytest.mark.parametrize("master,name", [
    (1.5, "float"), ("7", "str"), (True, "bool"), (np.bool_(False), "bool"), (None, "NoneType"),
    (np.float64(2.0), "float64"),
])
def test_rejects_non_integer_and_bool_masters(master, name):
    with pytest.raises(TypeError, match=f"master seed must be an int, got {name}"):
        SeedPath(master)

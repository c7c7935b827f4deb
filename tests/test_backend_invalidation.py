"""One iterator-invalidation suite, three storage backends.

The storage split's core promise is that invalidation semantics are a
property of the *container interface*, not of the representation behind
it: a ``Vector`` over a Python list, a ``ContiguousVector`` over one
``array`` block, and a ``SqliteSequence`` over a database must invalidate
exactly the same iterators on exactly the same mutations.  Every test
here is parametrized over all three backends and written once.
"""

import pytest

from repro.sequences import DList, Vector
from repro.sequences.algorithms import fill, reverse, sort
from repro.sequences.backends import ContiguousVector, SqliteSequence

#: (backend name, zero-arg-or-items factory) for every Vector-family
#: backend.  All use int elements so the contiguous typecode fits.
BACKENDS = [
    ("vector", Vector),
    ("contig", ContiguousVector),
    ("sqlite", lambda items=(): SqliteSequence(items)),
]

parametrize_backends = pytest.mark.parametrize(
    "factory", [f for _, f in BACKENDS], ids=[n for n, _ in BACKENDS],
)


# ---------------------------------------------------------------------------
# Invalidation rules (identical across representations)
# ---------------------------------------------------------------------------


@parametrize_backends
class TestInvalidationRules:
    def test_erase_invalidates_at_and_after(self, factory):
        v = factory([1, 2, 3, 4])
        before = v.begin()                   # index 0: stays valid
        at = v.begin(); at.advance(2)        # index 2: invalidated
        after = v.begin(); after.advance(3)  # index 3: invalidated
        target = v.begin(); target.advance(2)
        v.erase(target)
        assert before.is_valid()
        assert not at.is_valid()
        assert not after.is_valid()
        assert v.to_list() == [1, 2, 4]

    def test_insert_invalidates_at_and_after(self, factory):
        v = factory([1, 2, 3, 4])
        v._capacity = 100  # suppress reallocation for this test
        before = v.begin()
        after = v.begin(); after.advance(2)
        pos = v.begin(); pos.advance(2)
        v.insert(pos, 99)
        assert before.is_valid()
        assert not after.is_valid()
        assert v.to_list() == [1, 2, 99, 3, 4]

    def test_reallocation_invalidates_everything(self, factory):
        v = factory([1])
        assert v.capacity() == 1
        it = v.begin()
        v.push_back(2)   # exceeds capacity -> reallocation
        assert v.reallocations == 1
        assert not it.is_valid()

    def test_push_back_without_reallocation_keeps_iterators(self, factory):
        v = factory([1])
        v._capacity = 10
        it = v.begin()
        v.push_back(2)
        assert it.is_valid()

    def test_pop_back_invalidates_last_only(self, factory):
        v = factory([1, 2, 3])
        first = v.begin()
        last = v.begin(); last.advance(2)
        v.pop_back()
        assert first.is_valid()
        assert not last.is_valid()

    def test_clear_invalidates_everything(self, factory):
        v = factory([1, 2, 3])
        its = [v.begin() for _ in range(3)]
        v.clear()
        assert all(not it.is_valid() for it in its)
        assert v.empty()

    def test_invalidation_events_counted(self, factory):
        v = factory([1, 2, 3, 4])
        _live = [v.begin(), v.begin()]
        for it in _live:
            it.advance(3)
        v.erase(v.begin())   # erase at 0 invalidates everything at/after 0
        assert v.invalidation_events >= 2


# ---------------------------------------------------------------------------
# Epoch discipline: every mutation ticks the clock
# ---------------------------------------------------------------------------


@parametrize_backends
class TestEpochDiscipline:
    def test_every_mutation_bumps_epoch(self, factory):
        v = factory([1, 2, 3])
        v._capacity = 100
        mutations = [
            lambda: v.push_back(4),
            lambda: v.pop_back(),
            lambda: v.insert(v.begin(), 0),
            lambda: v.erase(v.begin()),
            lambda: v.set_at(0, 9),
            lambda: v.clear(),
        ]
        for mutate in mutations:
            before = v.epoch
            mutate()
            assert v.epoch == before + 1

    def test_reads_do_not_bump_epoch(self, factory):
        v = factory([1, 2, 3])
        before = v.epoch
        v.at(1)
        v.to_list()
        list(iter(v.begin().clone() for _ in range(2)))
        assert v.epoch == before


# ---------------------------------------------------------------------------
# Facts flow through the same choke point as invalidation
# ---------------------------------------------------------------------------


@parametrize_backends
class TestFactsThroughStorageSeam:
    def test_push_back_destroys_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        assert v.has_fact("sorted")
        v.push_back(0)   # append can break order
        assert not v.has_fact("sorted")

    def test_element_write_destroys_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        v.set_at(0, 99)  # overwrite can break order
        assert not v.has_fact("sorted")

    def test_erase_preserves_sorted(self, factory):
        v = factory([1, 2, 3])
        v.assert_fact("sorted")
        v.erase(v.begin())  # removing an element keeps relative order
        assert v.has_fact("sorted")

    def test_assert_fact_checks_by_default(self, factory):
        v = factory([3, 1, 2])
        with pytest.raises(ValueError):
            v.assert_fact("sorted")


# ---------------------------------------------------------------------------
# Writes through a DList iterator reach the same choke point
# ---------------------------------------------------------------------------


class TestDListIteratorWrites:
    def test_write_through_iterator_destroys_sorted(self):
        lst = DList([3, 1, 2])
        sort(lst)
        assert lst.has_fact("sorted")
        before = lst.epoch
        lst.begin().set(99)
        assert lst.to_list() == [99, 2, 3]
        assert not lst.has_fact("sorted")
        assert lst.epoch == before + 1

    def test_same_write_on_vector_agrees(self):
        v = Vector([3, 1, 2])
        sort(v)
        before = v.epoch
        v.begin().set(99)
        assert not v.has_fact("sorted")
        assert v.epoch == before + 1

    def test_generic_writers_commit_on_dlist(self):
        lst = DList([1, 2, 3])
        lst.assert_fact("sorted")
        before = lst.epoch
        fill(lst.begin(), lst.end(), 0)
        assert lst.epoch == before + 3
        lst.assert_fact("sorted")
        reverse(lst.begin(), lst.end())
        assert not lst.has_fact("sorted")

"""Differential tests: every bulk path against the generic iterator code.

``find``, ``count``, ``accumulate``, ``lower_bound``/``upper_bound`` and
``sort`` take a bulk path on RAM-resident containers (see the docstring of
:mod:`repro.sequences.algorithms`).  Each property here runs the same call
three ways and requires the same answer:

- the bulk path, on ``Vector``, ``Deque`` and ``ContiguousVector``;
- the generic code on the same container, with the bulk paths switched
  off (the :func:`generic_only` context);
- the generic code on a ``DList`` holding the same values, which never
  takes the range bulk paths because its iterators are not indexable.

For ``sort`` the reference is the generic quicksort (switched-off bulk
path, or a non-default ``less`` wrapper) and, on ``DList``, the generic
merge sort.
"""

import contextlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequences import Deque, DList, Vector
from repro.sequences import algorithms as alg
from repro.sequences.backends import ContiguousStorage, ContiguousVector
from repro.sequences.backends import SqliteSequence
from repro.sequences.errors import (
    IteratorRangeError,
    PastTheEndError,
    SingularIteratorError,
)

NAN = float("nan")


@contextlib.contextmanager
def generic_only():
    """Run the generic iterator code even where a bulk path would fire."""
    saved = alg._bulk_range, alg._ram_resident
    alg._bulk_range = lambda first, last: None
    alg._ram_resident = lambda container: False
    try:
        yield
    finally:
        alg._bulk_range, alg._ram_resident = saved


def contiguous_floats(items=()):
    return ContiguousVector(items, storage=ContiguousStorage(typecode="d"))


#: Values whose ``==`` and ``<`` differ from identity: the shared NaN
#: object, fresh NaNs, and the 1 / 1.0 / True family.
mixed_values = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, NAN, 2.5]),
    st.builds(float, st.just("nan")),
)
ints = st.integers(-20, 20)


def factories_for(items):
    """The bulk-path containers that can hold ``items``."""
    out = [Vector, Deque]
    if all(type(x) is int for x in items):
        out.append(ContiguousVector)
    if all(isinstance(x, float) for x in items):
        out.append(contiguous_floats)
    return out


def at(container, index):
    """An iterator ``index`` steps from ``begin()`` (linear on a DList)."""
    it = container.begin()
    for _ in range(index):
        it.increment()
    return it


def position(container, it):
    """``it``'s index, counted from ``begin()``."""
    return alg.distance(container.begin(), it)


def same(a, b):
    """Equal values of the same type, NaN equal to NaN."""
    return repr(a) == repr(b)


@st.composite
def range_case(draw, values=mixed_values):
    items = draw(st.lists(values, max_size=24))
    lo = draw(st.integers(0, len(items)))
    hi = draw(st.integers(lo, len(items)))
    probe = draw(st.one_of(values, st.sampled_from(items or [0])))
    return items, lo, hi, probe


def run_three_ways(factory, items, lo, hi, op):
    """``op(container, first, last)`` via the bulk path, the generic code
    on the same container, and the generic code on a DList."""
    c = factory(items)
    bulk = op(c, at(c, lo), at(c, hi))
    with generic_only():
        generic = op(c, at(c, lo), at(c, hi))
    ref = DList(c.to_list())
    return bulk, generic, op(ref, at(ref, lo), at(ref, hi))


# ---------------------------------------------------------------------------
# find / count
# ---------------------------------------------------------------------------


class EqLog:
    """A probe value that records every ``==`` it takes part in."""

    def __init__(self, target):
        self.target, self.seen = target, []

    def __eq__(self, other):
        self.seen.append(repr(other))
        return other == self.target

    __hash__ = None


@given(range_case())
def test_find_matches_generic(case):
    items, lo, hi, probe = case
    for factory in factories_for(items):
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi,
            lambda c, f, l: position(c, alg.find(f, l, probe)))
        assert bulk == generic == linear


@given(range_case())
def test_count_matches_generic(case):
    items, lo, hi, probe = case
    for factory in factories_for(items):
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi, lambda c, f, l: alg.count(f, l, probe))
        assert bulk == generic == linear


@given(range_case())
def test_find_and_count_compare_each_element_in_order(case):
    """``==`` is called per element, in order, and ``find`` stops at the
    same element — no identity shortcut, no early exit in ``count``."""
    items, lo, hi, probe = case
    for factory in factories_for(items):
        for name in ("find", "count"):
            logs = []
            for disable in (False, True):
                c = factory(items)
                value = EqLog(probe)
                ctx = generic_only() if disable else contextlib.nullcontext()
                with ctx:
                    getattr(alg, name)(at(c, lo), at(c, hi), value)
                logs.append(value.seen)
            assert logs[0] == logs[1]


@pytest.mark.parametrize("factory", [Vector, Deque, contiguous_floats])
def test_nan_is_never_found(factory):
    """``list.index`` would find the very NaN object stored; ``==`` does
    not, and neither does the bulk path."""
    c = factory([1.0, NAN, 2.0])
    assert alg.find(c.begin(), c.end(), NAN).equals(c.end())
    assert alg.count(c.begin(), c.end(), NAN) == 0
    assert [1.0, NAN].index(NAN) == 1   # the shortcut the bulk path avoids


def test_mixed_numeric_family_counts_by_equality():
    c = Vector([1, 1.0, True, 2, 0])
    assert alg.count(c.begin(), c.end(), 1) == 3
    assert alg.find(c.begin(), c.end(), True).index == 0


# ---------------------------------------------------------------------------
# accumulate
# ---------------------------------------------------------------------------


@given(range_case())
def test_accumulate_default_op_matches_generic(case):
    items, lo, hi, _ = case
    for factory in factories_for(items):
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi, lambda c, f, l: alg.accumulate(f, l, 0))
        assert same(bulk, generic) and same(bulk, linear)


@given(range_case(values=st.floats(-1e16, 1e16, allow_nan=False)))
def test_accumulate_is_a_left_fold_not_a_compensated_sum(case):
    items, lo, hi, _ = case
    c = Vector(items)
    want = 0.0
    for x in items[lo:hi]:
        want = want + x
    assert same(alg.accumulate(at(c, lo), at(c, hi), 0.0), want)


@given(range_case(values=ints))
def test_accumulate_custom_op_sees_elements_in_order(case):
    items, lo, hi, _ = case
    for factory in factories_for(items):
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi,
            lambda c, f, l: alg.accumulate(f, l, (), lambda a, x: a + (x,)))
        assert bulk == generic == linear == tuple(items[lo:hi])
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi,
            lambda c, f, l: alg.accumulate(f, l, 7, lambda a, x: 2 * a - x))
        assert bulk == generic == linear


# ---------------------------------------------------------------------------
# lower_bound / upper_bound
# ---------------------------------------------------------------------------


class LessLog:
    """A custom ``less`` that records the elements it is asked about."""

    def __init__(self):
        self.seen = []

    def __call__(self, a, b):
        self.seen.append((repr(a), repr(b)))
        return a < b


@given(range_case(values=st.one_of(ints, st.sampled_from([1.0, True, NAN]))),
       st.booleans())
def test_bounds_match_generic_even_unsorted(case, upper):
    """Same midpoints as the generic ``advance`` sequence: the answers
    agree on unsorted input too, and so do the comparisons made."""
    items, lo, hi, probe = case
    name = "upper_bound" if upper else "lower_bound"
    for factory in factories_for(items):
        logs = []

        def op(c, f, l):
            less = LessLog()
            logs.append(less.seen)
            return position(c, getattr(alg, name)(f, l, probe, less))

        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi, op)
        assert bulk == generic == linear
        assert logs[0] == logs[1] == logs[2]
        bulk, generic, linear = run_three_ways(
            factory, items, lo, hi,
            lambda c, f, l: position(c, getattr(alg, name)(f, l, probe)))
        assert bulk == generic == linear


@given(st.lists(ints, max_size=30), ints)
def test_bounds_on_sorted_input_equal_bisect(items, probe):
    import bisect

    items.sort()
    for factory in factories_for(items):
        c = factory(items)
        assert alg.lower_bound(c.begin(), c.end(), probe).index == \
            bisect.bisect_left(items, probe)
        assert alg.upper_bound(c.begin(), c.end(), probe).index == \
            bisect.bisect_right(items, probe)


# ---------------------------------------------------------------------------
# Malformed ranges fall through and raise what the generic code raises
# ---------------------------------------------------------------------------

RANGE_OPS = {
    "find": lambda f, l: alg.find(f, l, 99),
    "count": lambda f, l: alg.count(f, l, 99),
    "accumulate": lambda f, l: alg.accumulate(f, l, 0),
    "lower_bound": lambda f, l: alg.lower_bound(f, l, 99),
    "upper_bound": lambda f, l: alg.upper_bound(f, l, 99),
}


def singular(c):
    it = c.begin()
    it.increment()
    c.clear()               # invalidates every iterator
    for x in (1, 2, 3):
        c.push_back(x)
    return it, c.end()


def foreign(c):
    return c.begin(), Vector([1, 2, 3]).end()


def reversed_range(c):
    last = c.begin()
    first = c.begin()
    first.advance(2)
    return first, last


def outcome(fn):
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return result.index if hasattr(result, "index") else result


@pytest.mark.parametrize("factory", [Vector, Deque, ContiguousVector])
@pytest.mark.parametrize("make", [singular, foreign, reversed_range],
                         ids=["singular", "foreign", "reversed"])
@pytest.mark.parametrize("op", sorted(RANGE_OPS))
def test_malformed_ranges_behave_as_generic(factory, make, op):
    bulk = outcome(lambda: RANGE_OPS[op](*make(factory([1, 2, 3, 4]))))
    with generic_only():
        generic = outcome(lambda: RANGE_OPS[op](*make(factory([1, 2, 3, 4]))))
    assert bulk == generic


def test_malformed_range_exception_types():
    with pytest.raises(SingularIteratorError):
        RANGE_OPS["find"](*singular(Vector([1, 2, 3])))
    with pytest.raises(IteratorRangeError):
        RANGE_OPS["count"](*foreign(Vector([1, 2, 3])))
    with pytest.raises(PastTheEndError):
        RANGE_OPS["accumulate"](*reversed_range(Vector([1, 2, 3])))


# ---------------------------------------------------------------------------
# sort
# ---------------------------------------------------------------------------


class WrappedLess:
    """The default order behind a different object: forces the generic
    quicksort / merge sort, which only the default ``less`` bypasses."""

    def __call__(self, a, b):
        return a < b


swo_values = st.one_of(ints, st.sampled_from([1, 1.0, True, 0, False, 2.5]))


def snapshot(c, its):
    return ([repr(x) for x in c.to_list()], c.facts,
            [(it.is_valid(), repr(it.deref()) if it.is_valid()
              and not it.equals(c.end()) else None) for it in its])


def prepared(factory, items):
    c = factory(items)
    c.assert_fact("size-bounded")        # survives writes
    c.assert_fact("unique", check=False)  # destroyed by writes
    its = [c.begin(), c.end()]
    if items:
        mid = c.begin()
        for _ in range(len(items) // 2):
            mid.increment()
        its.append(mid)
    return c, its


@given(st.lists(swo_values, max_size=40))
def test_sort_matches_generic_quicksort(items):
    for factory in factories_for(items):
        c, its = prepared(factory, items)
        e0 = c.epoch
        alg.sort(c)
        commits = c.epoch - e0
        values, facts, validity = snapshot(c, its)
        with generic_only():
            g, gits = prepared(factory, items)
            alg.sort(g)
        g_values, g_facts, g_validity = snapshot(g, gits)
        assert c.to_list() == g.to_list() == sorted(items)
        assert values == [repr(x) for x in sorted(items)]   # stable
        assert facts == g_facts
        assert [v for v, _ in validity] == [v for v, _ in g_validity]
        assert commits == (1 if len(items) > 1 else 0)


@given(st.lists(swo_values, max_size=40))
def test_dlist_sort_matches_generic_merge_sort_exactly(items):
    """Both sorts are stable, so equivalent elements keep their order:
    the two outputs agree element for element, types included."""
    c, its = prepared(DList, items)
    e0 = c.epoch
    alg.sort(c)
    g, gits = prepared(DList, items)
    alg.sort(g, WrappedLess())
    if len(items) > 1:
        alg._note_sorted(g, alg._default_less)   # what the default sort adds
    assert snapshot(c, its) == snapshot(g, gits)
    assert c.epoch - e0 == (1 if len(items) > 1 else 0)
    assert c.has_fact("sorted") == (len(items) > 1)


@pytest.mark.parametrize("factory", [Vector, Deque, ContiguousVector])
def test_custom_less_still_runs_quicksort(factory, monkeypatch):
    ran = []
    quicksort = alg._quicksort_indices
    monkeypatch.setattr(alg, "_quicksort_indices",
                        lambda *a: ran.append(a[-1]) or quicksort(*a))
    items = random.Random(5).sample(range(100), 40)
    c = factory(items)
    less = WrappedLess()
    alg.sort(c, less)
    assert ran and all(x is less for x in ran)
    assert c.to_list() == sorted(items)
    assert not c.has_fact("sorted")   # the fact is only for the default less
    ran.clear()
    alg.sort(factory(items))
    assert ran == []


def test_sort_with_nan_keeps_a_permutation():
    """NaN breaks the strict weak order sort requires (Fig. 6), so no
    order is promised; the elements must all survive."""
    items = [3.0, NAN, 1.0, 2.0]
    for factory in (Vector, Deque, contiguous_floats, DList):
        c = factory(items)
        alg.sort(c)
        assert sorted(map(repr, c.to_list())) == sorted(map(repr, items))


@pytest.mark.parametrize("factory", [Vector, Deque, DList])
def test_failed_sort_leaves_container_and_facts(factory):
    c = factory([3, "a", 1])
    c.assert_fact("size-bounded")
    e0 = c.epoch
    with pytest.raises(TypeError):
        alg.sort(c)
    assert c.to_list() == [3, "a", 1]
    assert c.epoch == e0 and c.has_fact("size-bounded")


def test_stable_sort_on_vector_keeps_equivalent_order():
    c = Vector([1.0, 0, 1, True, False])
    alg.stable_sort(c)
    assert [repr(x) for x in c.to_list()] == ["0", "False", "1.0", "1", "True"]


# ---------------------------------------------------------------------------
# The persistent store is excluded: one round trip per element, backend sort
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", ["find", "count", "accumulate"])
def test_sqlite_scans_stay_per_element(op):
    trips = {}
    for n in (8, 32):
        s = SqliteSequence(range(n))
        before = s.storage().roundtrips
        if op == "find":
            alg.find(s.begin(), s.end(), -1)
        elif op == "count":
            alg.count(s.begin(), s.end(), 3)
        else:
            alg.accumulate(s.begin(), s.end(), 0)
        trips[n] = s.storage().roundtrips - before
    assert trips[8] >= 8 and trips[32] >= 32
    assert trips[32] - trips[8] >= 24


def test_sqlite_sort_still_reaches_backend_sort(monkeypatch):
    from repro.sequences.backends import SqliteStorage

    calls = []
    original = SqliteStorage.backend_sort
    monkeypatch.setattr(SqliteStorage, "backend_sort",
                        lambda self: calls.append(1) or original(self))
    monkeypatch.setattr(SqliteStorage, "sort",
                        lambda self: pytest.fail("bulk sort on sqlite"))
    s = SqliteSequence([3, 1, 2])
    alg.sort(s)
    assert calls == [1]
    assert s.to_list() == [1, 2, 3] and s.has_fact("sorted")

"""Value-semantic iterators with tracked validity.

The STL's iterator model — and the invalidation semantics STLlint checks —
requires copyable positional iterators whose validity is a *state*: "iterator
invalidation occurs when an operation alters a data structure such that
iterators referring to elements of that data structure can no longer be used
safely" (Section 3.1).  Containers in this package keep a registry of live
iterators and mark them singular according to each container's documented
rules, so misuse raises immediately instead of corrupting memory.

The iterator interface is the one the concepts in
:mod:`repro.concepts.builtins` require:

- ``deref()`` / ``set(v)``    read/write the referenced element
- ``increment()`` / ``decrement()``   step in place
- ``clone()``                 independent copy (Forward Iterator's multipass)
- ``equals(other)``           position equality
- ``advance(n)`` / ``distance(other)`` / ``less(other)``   random access
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Iterator as PyIterator, Optional

from .errors import (
    IteratorRangeError,
    PastTheEndError,
    SingularIteratorError,
)


class IteratorBase:
    """Shared plumbing: validity flag, container backref, Python interop."""

    value_type: type = object

    def __init__(self, container: Any) -> None:
        self._container = container
        self._valid = True
        container._register_iterator(self)

    # -- validity ------------------------------------------------------------

    @property
    def container(self) -> Any:
        return self._container

    def is_valid(self) -> bool:
        return self._valid

    def _invalidate(self) -> None:
        self._valid = False

    def _require_valid(self) -> None:
        if not self._valid:
            raise SingularIteratorError(
                "attempt to use a singular (invalidated) iterator"
            )

    # -- Python interop --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IteratorBase):
            return NotImplemented
        return self.equals(other)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self) -> int:
        # Iterators are mutable positions; identity hash keeps them usable
        # in the container's weak registry without touching position state.
        return id(self)

    def equals(self, other: "IteratorBase") -> bool:  # pragma: no cover
        raise NotImplementedError

    def deref(self) -> Any:  # pragma: no cover
        raise NotImplementedError

    def increment(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def clone(self) -> "IteratorBase":  # pragma: no cover
        raise NotImplementedError


class RandomAccessMixin:
    """Random-access operations implemented over an integer index."""

    _index: int

    def advance(self, n: int) -> None:
        self._require_valid()  # type: ignore[attr-defined]
        new = self._index + n
        if new < 0 or new > self._container._end_index():  # type: ignore[attr-defined]
            raise PastTheEndError(
                f"advance({n}) moves iterator outside [begin, end]"
            )
        self._index = new

    def distance(self, other: "RandomAccessMixin") -> int:
        self._require_valid()  # type: ignore[attr-defined]
        other._require_valid()  # type: ignore[attr-defined]
        if self._container is not other._container:  # type: ignore[attr-defined]
            raise IteratorRangeError("distance between different containers")
        return other._index - self._index

    def less(self, other: "RandomAccessMixin") -> bool:
        self._require_valid()  # type: ignore[attr-defined]
        other._require_valid()  # type: ignore[attr-defined]
        if self._container is not other._container:  # type: ignore[attr-defined]
            raise IteratorRangeError("comparing iterators of different containers")
        return self._index < other._index


class IndexIterator(RandomAccessMixin, IteratorBase):
    """Random-access iterator over an index-addressable container
    (:class:`~repro.sequences.vector.Vector`,
    :class:`~repro.sequences.deque.Deque`)."""

    def __init__(self, container: Any, index: int) -> None:
        self._index = index
        super().__init__(container)

    # -- core interface ---------------------------------------------------------

    def deref(self) -> Any:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError("attempt to dereference a past-the-end iterator")
        return self._container._get(self._index)

    def set(self, value: Any) -> None:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError("attempt to write through a past-the-end iterator")
        self._container._set(self._index, value)

    def increment(self) -> None:
        self._require_valid()
        if self._index >= self._container._end_index():
            raise PastTheEndError("attempt to increment a past-the-end iterator")
        self._index += 1

    def decrement(self) -> None:
        self._require_valid()
        if self._index <= 0:
            raise PastTheEndError("attempt to decrement the begin iterator")
        self._index -= 1

    def clone(self) -> "IndexIterator":
        self._require_valid()
        return type(self)(self._container, self._index)

    def equals(self, other: IteratorBase) -> bool:
        self._require_valid()
        if not isinstance(other, IndexIterator):
            return False
        other._require_valid()
        return self._container is other._container and self._index == other._index

    @property
    def index(self) -> int:
        return self._index

    def __repr__(self) -> str:
        state = "" if self._valid else " SINGULAR"
        return f"<{type(self).__name__} @{self._index}{state}>"


class NodeIterator(IteratorBase):
    """Bidirectional iterator over a linked structure
    (:class:`~repro.sequences.dlist.DList`).  Points at a node; the
    container's sentinel node is the past-the-end position."""

    def __init__(self, container: Any, node: Any) -> None:
        self._node = node
        super().__init__(container)

    def deref(self) -> Any:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError("attempt to dereference a past-the-end iterator")
        return self._node.value

    def set(self, value: Any) -> None:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError("attempt to write through a past-the-end iterator")
        self._container._set_node(self._node, value)

    def increment(self) -> None:
        self._require_valid()
        if self._node is self._container._sentinel:
            raise PastTheEndError("attempt to increment a past-the-end iterator")
        self._node = self._node.next

    def decrement(self) -> None:
        self._require_valid()
        if self._node is self._container._sentinel.next:
            raise PastTheEndError("attempt to decrement the begin iterator")
        self._node = self._node.prev

    def clone(self) -> "NodeIterator":
        self._require_valid()
        return type(self)(self._container, self._node)

    def equals(self, other: IteratorBase) -> bool:
        self._require_valid()
        if not isinstance(other, NodeIterator):
            return False
        other._require_valid()
        return self._node is other._node

    @property
    def node(self) -> Any:
        return self._node

    def __repr__(self) -> str:
        state = "" if self._valid else " SINGULAR"
        at = "end" if self._valid and self._node is self._container._sentinel else "node"
        return f"<{type(self).__name__} @{at}{state}>"


class IteratorRegistry:
    """Weak registry of live iterators, used by containers to apply their
    invalidation rules on mutation."""

    def __init__(self) -> None:
        self._iterators: "weakref.WeakSet[IteratorBase]" = weakref.WeakSet()

    def register(self, it: IteratorBase) -> None:
        self._iterators.add(it)

    def live(self) -> list[IteratorBase]:
        return [it for it in self._iterators if it.is_valid()]

    def invalidate_all(self) -> int:
        n = 0
        for it in self.live():
            it._invalidate()
            n += 1
        return n

    def invalidate_if(self, predicate) -> int:
        n = 0
        for it in self.live():
            if predicate(it):
                it._invalidate()
                n += 1
        return n


def require_same_container(first: IteratorBase, last: IteratorBase) -> None:
    if first.container is not last.container:
        raise IteratorRangeError(
            "[first, last) spans two different containers"
        )


def python_range(first: IteratorBase, last: IteratorBase) -> PyIterator[Any]:
    """Adapt an iterator range to a Python generator (read-only)."""
    require_same_container(first, last)
    it = first.clone()
    while not it.equals(last):
        yield it.deref()
        it.increment()

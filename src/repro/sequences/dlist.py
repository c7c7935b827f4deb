"""A ``std::list``-like doubly linked list.

Invalidation rules (ISO C++ [list.modifiers]): ``insert`` invalidates
nothing; ``erase`` invalidates only iterators to the erased element.  This
asymmetry with :class:`~repro.sequences.vector.Vector` is exactly why the
invalidation behaviour "varies greatly across domains" yet "the semantic
iterator concept — including requirements pertaining to invalidation —
cross-cuts various domains" (Section 3.1): one concept, per-model rules.

The class is a façade over :class:`~repro.sequences.storage.LinkedStorage`;
the node graph lives in the store, and every mutation — including the
push/pop paths that (correctly) invalidate no iterators, and element writes
through an iterator — goes through the shared choke point so runtime facts
are invalidated and the mutation epoch bumps even when no iterator dies.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional

from .iterators import IteratorRegistry, NodeIterator
from .storage import LinkedStorage, SequenceFacade, _LinkNode

#: Retained name: the node type now lives in the storage layer.
_Node = _LinkNode


class DListIterator(NodeIterator):
    """Bidirectional iterator over a :class:`DList`."""

    value_type: type = object


class DList(SequenceFacade):
    """Doubly linked list; models Reversible Container, Front and Back
    Insertion Sequence — but *not* Random Access Container, which is what
    steers concept-overloaded ``sort`` away from quicksort for lists."""

    value_type: type = object
    iterator: type = DListIterator
    storage_factory: ClassVar[type] = LinkedStorage

    def __init__(self, items: Iterable[Any] = (),
                 storage: Optional[LinkedStorage] = None) -> None:
        if storage is None:
            storage = self.storage_factory()
        self._init_facade(storage)
        self._iterators = IteratorRegistry()
        self.invalidation_events = 0
        for item in items:
            self.push_back(item)

    # -- internal plumbing -------------------------------------------------------

    @property
    def _sentinel(self) -> _Node:
        return self._store.sentinel

    def _register_iterator(self, it: DListIterator) -> None:
        self._iterators.register(it)

    def _link_before(self, node: _Node, new: _Node) -> None:
        self._store.link_before(node, new)

    def _unlink(self, node: _Node) -> None:
        self._store.unlink(node)

    def _set_node(self, node: _Node, value: Any) -> None:
        """Element write through an iterator: a ``write`` mutation like
        ``Vector``'s, so it drops ``sorted`` and bumps the epoch."""
        node.value = value
        self._commit_mutation("write")

    # -- Container interface ---------------------------------------------------------

    def begin(self) -> DListIterator:
        return self.iterator(self, self._sentinel.next)

    def end(self) -> DListIterator:
        return self.iterator(self, self._sentinel)

    def size(self) -> int:
        return self._store.length()

    def empty(self) -> bool:
        return self._store.length() == 0

    # -- Sequence mutations --------------------------------------------------------------

    def push_back(self, value: Any) -> None:
        self._store.link_before(self._sentinel, _Node(value))
        self._commit_mutation("append")

    def push_front(self, value: Any) -> None:
        self._store.link_before(self._sentinel.next, _Node(value))
        self._commit_mutation("append")

    def pop_front(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_front on empty list")
        node = self._sentinel.next
        value = node.value
        self._iterators.invalidate_if(
            lambda it: isinstance(it, NodeIterator) and it.node is node
        )
        self._store.unlink(node)
        self._commit_mutation("pop")
        return value

    def pop_back(self) -> Any:
        if self._store.length() == 0:
            raise IndexError("pop_back on empty list")
        node = self._sentinel.prev
        value = node.value
        self._iterators.invalidate_if(
            lambda it: isinstance(it, NodeIterator) and it.node is node
        )
        self._store.unlink(node)
        self._commit_mutation("pop")
        return value

    def insert(self, pos: DListIterator, value: Any) -> DListIterator:
        """Insert before ``pos``; invalidates nothing."""
        pos._require_valid()
        new = _Node(value)
        self._store.link_before(pos.node, new)
        self._commit_mutation("insert")
        return self.iterator(self, new)

    def erase(self, pos: DListIterator) -> DListIterator:
        """Erase at ``pos``; invalidates only iterators to that element and
        returns an iterator to the following element."""
        pos._require_valid()
        node = pos.node
        if node is self._sentinel:
            raise IndexError("erase of past-the-end iterator")
        after = node.next
        invalidated = self._iterators.invalidate_if(
            lambda it: isinstance(it, NodeIterator) and it.node is node
        )
        self._store.unlink(node)
        self._commit_mutation("erase", invalidated=invalidated)
        return self.iterator(self, after)

    def splice(self, pos: DListIterator, other: "DList") -> None:
        """Move all of ``other``'s nodes before ``pos`` in O(1); no element
        iterators are invalidated (they keep pointing at the moved nodes,
        which now belong to ``self``)."""
        pos._require_valid()
        if other is self or other.empty():
            return
        first, last = other._sentinel.next, other._sentinel.prev
        other._store.sentinel.next = other._store.sentinel
        other._store.sentinel.prev = other._store.sentinel
        moved = other._store._size
        other._store._size = 0
        at = pos.node
        first.prev = at.prev
        at.prev.next = first
        last.next = at
        at.prev = last
        self._store._size += moved
        # Iterators into `other` now belong to `self`'s node graph; re-home
        # the live ones so same-container range checks keep working.
        for it in other._iterators.live():
            if isinstance(it, NodeIterator) and it.node is not other._sentinel:
                it._container = self
                self._iterators.register(it)
        self._commit_mutation("insert")
        other._commit_mutation("clear")

    def clear(self) -> None:
        invalidated = self._iterators.invalidate_if(
            lambda it: isinstance(it, NodeIterator) and it.node is not self._sentinel
        )
        self._store.clear()
        self._commit_mutation("clear", invalidated=invalidated)

    # -- Python interop --------------------------------------------------------------------

    def __len__(self) -> int:
        return self._store.length()

    def __iter__(self):
        node = self._sentinel.next
        while node is not self._sentinel:
            yield node.value
            node = node.next

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DList):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"DList({list(self)!r})"

    def to_list(self) -> list[Any]:
        return list(self)

"""The storage seam: pluggable element stores behind the sequence façades.

The paper's claim is that *one* generic algorithm, constrained only by
concepts, should run at the speed of the best implementation for each
concrete representation.  That only becomes testable when the same
container interface can sit on genuinely different representations, so
this module splits every sequence container into two layers:

- a :class:`Storage` — the representation.  It owns the elements and
  answers a small index-addressed protocol (``length/get/set/insert/
  erase/slice``) plus lifecycle hooks (``flush/close``) and a *fact
  persistence* hook (``sync_facts/load_facts``) that durable backends
  override.  Each storage class publishes a :class:`StorageCapabilities`
  record — contiguity, persistence, random-access cost, io-cost-per-op —
  which is what backend-aware algorithm selection keys on.
- a façade (``Vector``/``Deque``/``DList`` and the classes in
  :mod:`repro.sequences.backends`) — the interface.  It models the
  container/iterator concepts, enforces the per-container ISO
  invalidation rules, and routes **every** mutation through one choke
  point (:meth:`SequenceFacade._commit_mutation`) that bumps the
  mutation epoch and pushes the mutation kind through the facts
  lattice's ``invalidate`` tables.

In-memory storages for the three classic containers live here;
``array``/mmap and sqlite representations live in
:mod:`repro.sequences.backends`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, ClassVar, Iterable, Iterator, Optional

from ..concepts.complexity import BigO, constant, linear
from ..facts.properties import closure as _closure
from ..facts.properties import holds as _holds
from ..facts.properties import invalidate as _invalidate


class StorageError(RuntimeError):
    """A backend could not be opened or operated on (corrupt file, closed
    connection, unstorable value).  Backends raise this instead of leaking
    their native exceptions so callers get one clean failure mode — the
    exit-code contract in ``sqlite_store.main`` depends on it."""


@dataclass(frozen=True)
class StorageCapabilities:
    """What a representation can do and what touching it costs.

    Attributes:
        name: short backend identity; doubles as the STLlint container
            kind for annotation-driven analysis (``def f(s: "sqlite")``).
        contiguous: elements occupy one machine-addressable block
            (enables bulk/slice transfers priced as one operation).
        persistent: elements and recorded facts survive ``close()`` and
            a later reopen from the same location.
        random_access: asymptotic cost of ``get(i)`` in the
            representation.
        io_cost_per_op: relative price of one round trip to the backing
            store, in units of one in-memory element operation.  Zero
            for RAM-resident stores; the optimizer's io/cpu weighting
            uses this as the ``io_ops`` weight.
    """

    name: str
    contiguous: bool = False
    persistent: bool = False
    random_access: BigO = field(default_factory=constant)
    io_cost_per_op: float = 0.0

    def capability_names(self) -> frozenset[str]:
        """The capability tags algorithm concepts may require."""
        tags = set()
        if self.contiguous:
            tags.add("contiguous")
        if self.persistent:
            tags.add("persistent")
        return frozenset(tags)


class Storage(ABC):
    """Index-addressed element store.  Implementations may keep elements
    in a Python list, a machine array, an mmap'd file, or a database —
    the façade neither knows nor cares, it only sees this protocol."""

    capabilities: ClassVar[StorageCapabilities]

    # -- required core ------------------------------------------------------------

    @abstractmethod
    def length(self) -> int:
        """Number of stored elements."""

    @abstractmethod
    def get(self, index: int) -> Any:
        """Element at ``index`` (callers bounds-check)."""

    @abstractmethod
    def set(self, index: int, value: Any) -> None:
        """Replace the element at ``index``."""

    @abstractmethod
    def insert(self, index: int, value: Any) -> None:
        """Insert ``value`` before ``index`` (``index == length()`` appends)."""

    @abstractmethod
    def erase(self, index: int) -> None:
        """Remove the element at ``index``."""

    # -- derived operations (override when the representation has a faster way) --

    def append(self, value: Any) -> None:
        self.insert(self.length(), value)

    def slice(self, start: int, stop: int) -> list[Any]:
        """Bulk read ``[start, stop)``; contiguous and remote backends
        override this to answer in one operation / round trip."""
        return [self.get(i) for i in range(start, stop)]

    def clear(self) -> None:
        for i in range(self.length() - 1, -1, -1):
            self.erase(i)

    def sort(self) -> None:
        """Reorder the elements into ascending ``<`` order, stably.  The
        elements are sorted as a copy before anything is written back, so
        a comparison that raises leaves the store unchanged."""
        items = self.slice(0, self.length())
        items.sort()
        for i, value in enumerate(items):
            self.set(i, value)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.slice(0, self.length()))

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """Make prior writes durable; no-op for RAM-resident stores."""

    def close(self) -> None:
        """Release backend resources; the store is unusable afterwards
        for persistent backends, a no-op otherwise."""

    # -- fact persistence ---------------------------------------------------------

    def sync_facts(self, facts: frozenset[str]) -> None:
        """Record the façade's current runtime fact set with the data.
        Durable backends persist it; in-memory stores ignore it."""

    def load_facts(self) -> frozenset[str]:
        """Facts stored with pre-existing data, already revalidated where
        the backend can check them cheaply (empty for fresh stores)."""
        return frozenset()


class ListStorage(Storage):
    """The default RAM representation: a Python ``list``."""

    capabilities = StorageCapabilities(
        name="vector", contiguous=False, persistent=False,
        random_access=constant(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items: list[Any] = list(items)

    def length(self) -> int:
        return len(self._items)

    def get(self, index: int) -> Any:
        return self._items[index]

    def set(self, index: int, value: Any) -> None:
        self._items[index] = value

    def insert(self, index: int, value: Any) -> None:
        self._items.insert(index, value)

    def erase(self, index: int) -> None:
        del self._items[index]

    def append(self, value: Any) -> None:
        self._items.append(value)

    def slice(self, start: int, stop: int) -> list[Any]:
        return self._items[start:stop]

    def clear(self) -> None:
        self._items.clear()

    def sort(self) -> None:
        self._items[:] = sorted(self._items)


class DequeStorage(Storage):
    """RAM representation over :class:`collections.deque` — O(1) at both
    ends, which is what makes the Deque façade's push_front honest."""

    capabilities = StorageCapabilities(
        name="deque", contiguous=False, persistent=False,
        random_access=constant(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        from collections import deque
        self._items: Any = deque(items)

    def length(self) -> int:
        return len(self._items)

    def get(self, index: int) -> Any:
        return self._items[index]

    def set(self, index: int, value: Any) -> None:
        self._items[index] = value

    def insert(self, index: int, value: Any) -> None:
        if index == 0:
            self._items.appendleft(value)
        elif index >= len(self._items):
            self._items.append(value)
        else:
            self._items.insert(index, value)

    def erase(self, index: int) -> None:
        if index == 0:
            self._items.popleft()
        elif index == len(self._items) - 1:
            self._items.pop()
        else:
            del self._items[index]

    def append(self, value: Any) -> None:
        self._items.append(value)

    def slice(self, start: int, stop: int) -> list[Any]:
        return list(islice(self._items, start, stop))

    def clear(self) -> None:
        self._items.clear()

    def sort(self) -> None:
        items = sorted(self._items)
        self._items.clear()
        self._items.extend(items)


class _LinkNode:
    __slots__ = ("value", "prev", "next")

    def __init__(self, value: Any = None) -> None:
        self.value = value
        self.prev: "_LinkNode" = self
        self.next: "_LinkNode" = self


class LinkedStorage(Storage):
    """Node-based RAM representation for the DList façade.  Implements
    the index protocol by walking (linear random access — which is what
    the capability record advertises), and exposes the node-level
    operations the list's node iterators and O(1) splice need."""

    capabilities = StorageCapabilities(
        name="list", contiguous=False, persistent=False,
        random_access=linear(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self.sentinel = _LinkNode()
        self._size = 0
        for item in items:
            self.link_before(self.sentinel, _LinkNode(item))

    # -- node-level protocol (DList uses these directly) -------------------------

    def link_before(self, node: _LinkNode, new: _LinkNode) -> None:
        new.prev = node.prev
        new.next = node
        node.prev.next = new
        node.prev = new
        self._size += 1

    def unlink(self, node: _LinkNode) -> None:
        node.prev.next = node.next
        node.next.prev = node.prev
        self._size -= 1

    def node_at(self, index: int) -> _LinkNode:
        node = self.sentinel.next
        for _ in range(index):
            node = node.next
        return node

    def splice_all(self, other: "LinkedStorage") -> tuple[_LinkNode, int]:
        """Move every node of ``other`` before this store's sentinel in
        O(1); returns (first moved node, count)."""
        first, last = other.sentinel.next, other.sentinel.prev
        moved = other._size
        other.sentinel.next = other.sentinel
        other.sentinel.prev = other.sentinel
        other._size = 0
        at = self.sentinel
        first.prev = at.prev
        at.prev.next = first
        last.next = at
        at.prev = last
        self._size += moved
        return first, moved

    # -- index protocol -----------------------------------------------------------

    def length(self) -> int:
        return self._size

    def get(self, index: int) -> Any:
        return self.node_at(index).value

    def set(self, index: int, value: Any) -> None:
        self.node_at(index).value = value

    def insert(self, index: int, value: Any) -> None:
        self.link_before(self.node_at(index), _LinkNode(value))

    def erase(self, index: int) -> None:
        self.unlink(self.node_at(index))

    def slice(self, start: int, stop: int) -> list[Any]:
        out, node = [], self.node_at(start)
        for _ in range(stop - start):
            out.append(node.value)
            node = node.next
        return out

    def clear(self) -> None:
        self.sentinel.next = self.sentinel
        self.sentinel.prev = self.sentinel
        self._size = 0

    def sort(self) -> None:
        """Rewrite the values in place: every node keeps its position,
        so iterators stay valid and see the sorted values, as after the
        generic merge sort's element writes."""
        node = self.sentinel.next
        for value in sorted(self.slice(0, self._size)):
            node.value = value
            node = node.next


# ---------------------------------------------------------------------------
# Runtime fact validators
# ---------------------------------------------------------------------------

#: Checks run by ``assert_fact`` before accepting a fact, keyed by
#: property name.  Backends with a cheaper native check (sqlite's
#: adjacent-pair SQL scan) validate on their own side instead.
def _is_sorted(container: Any) -> bool:
    seq = container.to_list()
    return all(a <= b for a, b in zip(seq, seq[1:]))


FACT_VALIDATORS: dict[str, Callable[[Any], bool]] = {
    "sorted": _is_sorted,
}


class SequenceFacade:
    """Shared behaviour of every sequence façade: the mutation choke
    point, the mutation epoch, and the runtime fact set mirroring the
    facts lattice.

    Subclasses perform their storage operation and their per-container
    iterator invalidation, then call :meth:`_commit_mutation` with the
    mutation kind — there is exactly one way for container state to
    change, so facts can never silently survive a mutation that should
    have destroyed them (the Deque/DList bypass this fixes).
    """

    #: Storage class used when no explicit store is supplied.
    storage_factory: ClassVar[type] = ListStorage

    def _init_facade(self, storage: Storage) -> None:
        self._store = storage
        #: Monotone counter bumped by every mutation, whatever its kind.
        self.epoch: int = 0
        self._facts: frozenset[str] = storage.load_facts()

    # -- storage access ------------------------------------------------------------

    def storage(self) -> Storage:
        return self._store

    @property
    def backend_capabilities(self) -> StorageCapabilities:
        return self._store.capabilities

    def flush(self) -> None:
        self._store.flush()

    def close(self) -> None:
        self._store.close()

    # -- the choke point -----------------------------------------------------------

    def _commit_mutation(self, kind: str, *, invalidated: int = 0) -> None:
        """Every mutation funnels through here: bump the epoch, count
        iterator invalidations, and run the mutation kind through the
        facts lattice so runtime facts die exactly when the abstract
        tables say they must."""
        self.epoch += 1
        if invalidated:
            self.invalidation_events += invalidated
        if self._facts:
            survived = _invalidate(self._facts, kind)
            if survived != self._facts:
                self._facts = survived
                self._store.sync_facts(survived)

    def _sort_storage(self) -> None:
        """Sort through the store's bulk :meth:`Storage.sort`.  Two or
        more elements commit one ``write``, which leaves the same facts as
        an element-by-element sort's writes; no iterator is invalidated,
        as none is by element writes."""
        if self._store.length() > 1:
            self._store.sort()
            self._commit_mutation("write")

    # -- runtime facts -------------------------------------------------------------

    @property
    def facts(self) -> frozenset[str]:
        """Properties currently known to hold (implication-closed)."""
        return self._facts

    def assert_fact(self, prop: str, *, check: bool = True) -> None:
        """Record that ``prop`` holds.  With ``check`` (the default) the
        registered validator must agree; algorithms that establish the
        property by construction pass ``check=False``."""
        name = str(prop)
        if check:
            validator = FACT_VALIDATORS.get(name)
            if validator is not None and not validator(self):
                raise ValueError(
                    f"assert_fact({name!r}): the container's contents do "
                    f"not satisfy the property"
                )
        self._facts = _closure(self._facts | {name})
        self._store.sync_facts(self._facts)

    def has_fact(self, prop: str) -> bool:
        """Does ``prop`` follow from the recorded facts under closure?"""
        return _holds(str(prop), self._facts)

    def drop_facts(self) -> None:
        """Forget all runtime facts (and any persisted copy)."""
        if self._facts:
            self._facts = frozenset()
            self._store.sync_facts(self._facts)

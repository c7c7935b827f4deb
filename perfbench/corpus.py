"""Seeded corpus generator for the ``analysis`` workload, with its own
ground truth.

Every module has the same five annotated functions, one per planted
pattern, in a seeded order and with seeded names and constants:

- ``fig4``: the paper's Fig. 4 loop that erases from the container it is
  iterating (expected: ``singular-advance`` and ``singular-deref``);
- ``chain``: an iterator taken, then a chain of 1-6 unannotated helpers
  that ends in an ``erase``, then a dereference (expected:
  ``singular-deref``, found only interprocedurally);
- ``sortfind``: sort then linear find (expected: ``sorted-linear-find``
  and a ``find -> lower_bound`` rewrite);
- ``sortmutfind``: sort, mutate, find (expected: nothing; the rewrite
  must be refused);
- ``clean``: nested iterator loops (expected: nothing).

Modules form import chains of :data:`GROUP` files (each imports the one
before it), so editing the head of one chain must re-analyze exactly that
chain.  Pattern counts, chain depths and group sizes do not depend on the
seed, so run time does not either; the seed picks names, order,
constants, the grouping and the edited file.

The checker compares the analyzer's output with these sets only, never
with an earlier run of the analyzer.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

#: Modules in one corpus and files per import chain.
MODULES = 100
GROUP = 4
#: Helper-chain depths cycled over the modules (then shuffled).
DEPTHS = (1, 2, 3, 4, 5, 6)
#: Distinct one-file edits, applied one after another.
EDITS = 3

_VARS = ("v", "xs", "items", "seq", "data", "vals", "buf", "row")
_STEMS = ("grade", "score", "entry", "record", "sample", "item", "cell")


@dataclass
class Corpus:
    """The generated files plus everything the checker expects of them.

    Paths are relative to the corpus root, with ``/`` separators."""

    files: dict[str, str]
    #: (path, function, check code) of every finding the linter must emit.
    findings: frozenset
    #: (path, function, call, replacement) of every rewrite the optimizer
    #: must plan and verify.
    plans: frozenset
    #: Annotated functions per file (what ``functions_checked`` counts).
    functions: dict[str, int]
    #: The file the one-file edits touch, its text after each edit (each
    #: adds one clean function), and the files a cached re-lint must
    #: analyze again after any one of them.
    edit_path: str
    edit_sources: tuple
    reanalyze: frozenset

    def write(self, root: pathlib.Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        for rel, text in self.files.items():
            (root / rel).write_text(text, encoding="utf-8")


def _fig4(name: str, rng: random.Random) -> tuple[str, set[str]]:
    v, out = rng.sample(_VARS, 2)
    x = rng.choice(_STEMS)
    k = rng.randint(1, 99)
    src = (
        f'def {name}({v}: "vector", {out}: "vector"):\n'
        f"    for {x} in {v}:\n"
        f"        if {x} > {k}:\n"
        f"            {out}.push_back({x})\n"
        f"            {v}.remove({x})\n"
    )
    return src, {"singular-advance", "singular-deref"}


def _chain(name: str, depth: int, rng: random.Random) -> tuple[str, set[str]]:
    v = rng.choice(_VARS)
    helpers = [f"{name}_h{i}" for i in range(1, depth + 1)]
    parts = []
    for here, nxt in zip(helpers, helpers[1:]):
        parts.append(f"def {here}(c):\n    {nxt}(c)\n")
    parts.append(f"def {helpers[-1]}(c):\n    c.erase(c.begin())\n")
    parts.append(
        f'def {name}({v}: "vector"):\n'
        f"    it = {v}.begin()\n"
        f"    {helpers[0]}({v})\n"
        f"    return it.deref()\n"
    )
    return "\n\n".join(parts), {"singular-deref"}


def _sortfind(name: str, rng: random.Random) -> tuple[str, set[str]]:
    v = rng.choice(_VARS)
    src = (
        f'def {name}({v}: "vector", key):\n'
        f"    sort({v}.begin(), {v}.end())\n"
        f"    it = find({v}.begin(), {v}.end(), key)\n"
        f"    if not it.equals({v}.end()):\n"
        f"        return it.deref()\n"
        f"    return None\n"
    )
    return src, {"sorted-linear-find"}


def _sortmutfind(name: str, rng: random.Random) -> tuple[str, set[str]]:
    v = rng.choice(_VARS)
    mutation = rng.choice(("push_back(extra)", "insert({v}.begin(), extra)"))
    src = (
        f'def {name}({v}: "vector", key, extra):\n'
        f"    sort({v}.begin(), {v}.end())\n"
        f"    {v}.{mutation.format(v=v)}\n"
        f"    it = find({v}.begin(), {v}.end(), key)\n"
        f"    if not it.equals({v}.end()):\n"
        f"        return it.deref()\n"
        f"    return None\n"
    )
    return src, set()


def _clean(name: str, rng: random.Random) -> tuple[str, set[str]]:
    a, b = rng.sample(_VARS, 2)
    op = rng.choice(("+", "*", "-"))
    src = (
        f'def {name}({a}: "vector", {b}: "vector"):\n'
        f"    total = 0\n"
        f"    i = {a}.begin()\n"
        f"    while not i.equals({a}.end()):\n"
        f"        j = {b}.begin()\n"
        f"        while not j.equals({b}.end()):\n"
        f"            total = total + (i.deref() {op} j.deref())\n"
        f"            j.increment()\n"
        f"        i.increment()\n"
        f"    return total\n"
    )
    return src, set()


def generate(seed: int) -> Corpus:
    """Build the corpus for ``seed`` (same seed, same corpus)."""
    rng = random.Random(seed)
    order = list(range(MODULES))
    rng.shuffle(order)
    groups = [order[i:i + GROUP] for i in range(0, MODULES, GROUP)]
    imports: dict[int, int] = {}
    for group in groups:
        for prev, mod in zip(group, group[1:]):
            imports[mod] = prev
    depths = [DEPTHS[i % len(DEPTHS)] for i in range(MODULES)]
    rng.shuffle(depths)

    files: dict[str, str] = {}
    findings: set = set()
    plans: set = set()
    functions: dict[str, int] = {}
    for m in range(MODULES):
        rel = f"mod_{m:03d}.py"
        stem = rng.choice(_STEMS)
        made = [
            (f"extract_{stem}_{m}", _fig4(f"extract_{stem}_{m}", rng)),
            (f"drop_{stem}_{m}", _chain(f"drop_{stem}_{m}", depths[m], rng)),
            (f"lookup_{stem}_{m}", _sortfind(f"lookup_{stem}_{m}", rng)),
            (f"relookup_{stem}_{m}",
             _sortmutfind(f"relookup_{stem}_{m}", rng)),
            (f"pairs_{stem}_{m}", _clean(f"pairs_{stem}_{m}", rng)),
        ]
        rng.shuffle(made)
        header = f'"""Generated module {m} (seed {seed})."""\n'
        if m in imports:
            header += f"\nimport mod_{imports[m]:03d}\n"
        files[rel] = header + "\n\n" + "\n\n".join(src for _, (src, _) in made)
        functions[rel] = len(made)
        for fn, (_, checks) in made:
            findings.update((rel, fn, check) for check in checks)
            if fn.startswith("lookup_"):
                plans.add((rel, fn, "find", "lower_bound"))

    group = rng.choice(groups)
    edit_path = f"mod_{group[0]:03d}.py"
    edit_sources = tuple(files[edit_path] + (
        f'\n\ndef edited_{k}(v: "vector"):\n'
        f"    it = v.begin()\n"
        f"    while not it.equals(v.end()):\n"
        f"        it.increment()\n"
        f"    return v.size()\n"
    ) for k in range(EDITS))
    return Corpus(
        files=files,
        findings=frozenset(findings),
        plans=frozenset(plans),
        functions=functions,
        edit_path=edit_path,
        edit_sources=edit_sources,
        reanalyze=frozenset(f"mod_{m:03d}.py" for m in group),
    )

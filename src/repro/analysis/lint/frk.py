"""FRK001/FRK002 — fork/merge safety of instrumentation stores.

The parallel executor (:mod:`repro.parallel`) forks workers and pickles
each worker's entire :class:`~repro.obs.instrument.Instrumentation` back
to the parent, which folds it in with ``merge_from``.  Two contracts
follow for every class reachable from an Instrumentation store:

* **FRK001 — transitively picklable.**  No locks, open file handles,
  lambdas, generators or weak references anywhere in the attribute
  chain: any of these makes the worker's result un-picklable, and the
  failure surfaces as an opaque crash *inside* the pool rather than at
  the offending constructor.
* **FRK002 — order-stable merge.**  Every store registered on
  Instrumentation must implement ``merge_from``; a store that assigns
  dense ids (``self._next_id``) must renumber on merge (its
  ``merge_from`` reads *and* writes ``_next_id``), otherwise worker ids
  collide and the serial-vs-parallel byte identity breaks.  Both facts
  resolve through the base chain: a store that inherits its id writes
  or its ``merge_from`` is judged by what it inherits.

Both rules walk the project index: the crossing set is every class named
``Instrumentation``, the classes its ``__init__`` registers as stores,
and the transitive closure over base classes and classes those stores
construct.  Findings are anchored at the offending class, filtered to
files actually scanned in this run.
"""

from __future__ import annotations

from repro.analysis.lint.base import FileContext, Finding, ProjectContext, Rule
from repro.analysis.lint.index import ClassSummary, ModuleIndex, ProjectIndex

_ROOT_CLASS = "Instrumentation"
_MAX_CLOSURE = 500


def _crossing_classes(
    index: ProjectIndex,
) -> tuple[
    list[tuple[ModuleIndex, ClassSummary]],
    list[tuple[ModuleIndex, ClassSummary, str, int]],
]:
    """The fork-crossing closure and the direct store registrations.

    Returns ``(crossing, stores)`` where ``stores`` carries the
    registration site: ``(module, class, attr name, line)``.
    """
    roots: list[tuple[ModuleIndex, ClassSummary]] = []
    for path in sorted(index.modules):
        mod = index.modules[path]
        root = mod.classes.get(_ROOT_CLASS)
        if root is not None:
            roots.append((mod, root))

    stores: list[tuple[ModuleIndex, ClassSummary, str, int]] = []
    queue: list[tuple[ModuleIndex, ClassSummary]] = []
    seen: set[tuple[str, str]] = set()

    def enqueue(mod: ModuleIndex, cls: ClassSummary) -> None:
        key = (mod.path, cls.name)
        if key not in seen and len(seen) < _MAX_CLOSURE:
            seen.add(key)
            queue.append((mod, cls))

    for mod, root in roots:
        enqueue(mod, root)
        for attr, ref, line in root.store_attrs:
            resolved = index.resolve_class(mod, ref)
            if resolved is not None:
                stores.append((resolved[0], resolved[1], attr, line))
                enqueue(*resolved)

    crossing: list[tuple[ModuleIndex, ClassSummary]] = []
    while queue:
        mod, cls = queue.pop(0)
        crossing.append((mod, cls))
        for base_ref in cls.bases:
            resolved = index.resolve_class(mod, base_ref)
            if resolved is not None:
                enqueue(*resolved)
        for ref in cls.constructed:
            # ``FlowRecord(...)`` inside FlowLog.record: the constructed
            # value lives in the store and crosses the boundary with it.
            head = ref.split(".", 1)[0]
            if head and head[0].isupper():
                resolved = index.resolve_class(mod, ref)
                if resolved is not None:
                    enqueue(*resolved)
    return crossing, stores


class Frk001UnpicklableAcrossFork(Rule):
    code = "FRK001"
    summary = (
        "class crossing the fork/merge boundary holds an unpicklable "
        "attribute (lock, open handle, lambda, generator)"
    )
    exempt_modules = ("repro.analysis.lint",)

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        return []  # project rule: everything happens in finalize

    def finalize(self, project: ProjectContext) -> list[Finding]:
        index = project.index
        if index is None:
            return []
        scanned = set(project.scanned)
        findings: list[Finding] = []
        crossing, _ = _crossing_classes(index)
        for mod, cls in crossing:
            if mod.path not in scanned or not self.applies_to(mod.module):
                continue
            for attr, description, line in cls.hazards:
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"class {cls.name} crosses the fork/merge "
                            f"boundary but attribute {attr!r} holds "
                            f"{description}; workers cannot pickle it back "
                            "to the parent"
                        ),
                        path=mod.path,
                        line=line,
                    )
                )
        return findings


class Frk002MergeContract(Rule):
    code = "FRK002"
    summary = (
        "Instrumentation store lacks an order-stable merge_from, or a "
        "dense-id store does not renumber on merge"
    )
    exempt_modules = ("repro.analysis.lint",)

    def visit_file(self, ctx: FileContext) -> list[Finding]:
        return []  # project rule: everything happens in finalize

    def finalize(self, project: ProjectContext) -> list[Finding]:
        index = project.index
        if index is None:
            return []
        scanned = set(project.scanned)
        findings: list[Finding] = []
        _, stores = _crossing_classes(index)
        reported: set[tuple[str, str]] = set()
        for mod, cls, attr, _line in stores:
            if mod.path not in scanned or not self.applies_to(mod.module):
                continue
            key = (mod.path, cls.name)
            if key in reported:
                continue
            reported.add(key)
            chain = _base_chain(index, mod, cls)
            merger = next((c for _, c in chain if c.has_merge_from), None)
            if merger is None:
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"store class {cls.name} (Instrumentation "
                            f"attribute {attr!r}) defines no merge_from; "
                            "parallel workers cannot fold it back "
                            "deterministically"
                        ),
                        path=mod.path,
                        line=cls.lineno,
                    )
                )
                continue
            writes_next_id = any(c.writes_next_id for _, c in chain)
            if writes_next_id and not (
                merger.merge_reads_next_id and merger.merge_writes_next_id
            ):
                inherited = "" if merger is cls else f" (inherited from {merger.name})"
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"dense-id store {cls.name} assigns "
                            f"self._next_id but its merge_from{inherited} "
                            "does not renumber (read and advance _next_id); "
                            "worker ids will collide with the parent's"
                        ),
                        path=mod.path,
                        line=cls.merge_from_line or cls.lineno,
                    )
                )
        return findings


def _base_chain(
    index: ProjectIndex, mod: ModuleIndex, cls: ClassSummary
) -> list[tuple[ModuleIndex, ClassSummary]]:
    """``cls`` then its resolvable bases, depth-first in MRO-like order.

    A store inherits both its dense-id writes and its ``merge_from``
    (e.g. from :class:`~repro.obs.store.BoundedLog`), so FRK002 judges
    the facts of the whole chain, not the registered class alone.
    """
    chain: list[tuple[ModuleIndex, ClassSummary]] = []
    seen: set[tuple[str, str]] = set()

    def walk(mod: ModuleIndex, cls: ClassSummary) -> None:
        key = (mod.path, cls.name)
        if key in seen:
            return
        seen.add(key)
        chain.append((mod, cls))
        for base_ref in cls.bases:
            resolved = index.resolve_class(mod, base_ref)
            if resolved is not None:
                walk(*resolved)

    walk(mod, cls)
    return chain

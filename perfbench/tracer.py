"""In-memory span tracer that wraps votelab's layer boundaries from outside.

Each layer is a list of public callables.  Installing the tracer replaces
every binding of such a callable in every loaded votelab module (a function
imported into three modules is wrapped in all three), or only the named
binding where the span counts one caller's use, and replaces methods on
their class.  A layer none of whose targets exists any more is reported
as missing, with zero calls, instead of being skipped.

A span is opened only when a layer is entered from a different layer, so
`exact()` calling `ExactNumber.of` is one coercion, not two.  Self time is
accumulated as spans close: a span's duration minus the time its child
spans cover.  Span records (name, start, end, parent) are kept in memory
up to a cap and written out at the end; the aggregates cover every span.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from dataclasses import dataclass

# name of the span, "module:attribute.path" of a target, and whether the
# span name is suffixed with the call's first argument (the rule id).
# A target marked "=" is wrapped in that module only.
LAYERS = (
    ("search", "votelab.search:exhaustive_criterion_search", False),
    ("search", "votelab.search:max_violation", False),
    ("search", "votelab.search:empirical_quota", False),
    ("search.rule_winners", "=votelab.search:rule_winners", False),
    ("model.Profile", "votelab.model:Profile.__post_init__", False),
    ("model.tournament_matrix", "votelab.model:tournament_matrix", False),
    ("model.positional_matrix", "votelab.model:positional_matrix", False),
    ("rules.report", "votelab.rules:report", True),
    ("exact.coerce", "votelab.exact:exact", False),
    ("exact.coerce", "votelab.exact:ExactNumber.of", False),
    ("exact.compare", "votelab.exact:ExactNumber.__eq__", False),
    ("exact.compare", "votelab.exact:ExactNumber.__lt__", False),
    ("exact.compare", "votelab.exact:ExactNumber.__le__", False),
    ("exact.compare", "votelab.exact:ExactNumber.__gt__", False),
    ("exact.compare", "votelab.exact:ExactNumber.__ge__", False),
    ("criteria.check_qk_majority", "votelab.criteria:check_qk_majority", False),
    ("criteria.second_order_dominance", "votelab.criteria:second_order_dominance", False),
    ("profile_io.parse_profile", "votelab.profile_io:parse_profile", False),
    ("profile_io.serialize_profile", "votelab.profile_io:serialize_profile", False),
    ("cli.main", "votelab.cli:main", False),
)

SPAN_KEEP = 250_000


class Tracer:
    """Collects spans, per-name call counts and per-name self time."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans = 0
        self._stack: list[list] = []  # [name, child time, record index]

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        index = -1
        if len(self.span_start) < SPAN_KEEP:
            index = len(self.span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [name, 0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            took = end - start
            self.spans += 1
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + took - frame[1]
            if stack:
                stack[-1][1] += took
            if index >= 0:
                self.span_start[index] = start
                self.span_end[index] = end

    def wrap(self, name: str, fn, by_first_arg: bool = False):
        run = self.run
        if by_first_arg:
            def traced(*args, **kwargs):
                return run(f"{name}.{args[0]}", fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return run(name, fn, *args, **kwargs)
        return functools.wraps(fn)(traced)

    def write(self, path) -> int:
        """Write the kept span records as gzip TSV; returns the number written."""
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
        return len(self.span_start)


@dataclass
class Installation:
    """What install() patched, so that it can be undone."""

    patches: list  # (owner, attribute, original)
    found: dict  # layer name -> number of bindings wrapped
    missing: list  # "module:path" targets that no longer exist

    def missing_layers(self) -> list[str]:
        return sorted(name for name, count in self.found.items() if count == 0)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _resolve(target: str):
    """(owner, attribute, value) for "module:attr" or "module:Class.attr", or None."""
    module_name, _, path = target.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        return None
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer, layers=LAYERS) -> Installation:
    """Wrap every binding of every layer target in the loaded votelab modules."""
    inst = Installation([], {}, [])
    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "votelab" or name.startswith("votelab."))
    ]
    for name, target, by_first_arg in layers:
        inst.found.setdefault(name, 0)
        only_here = target.startswith("=")
        target = target.lstrip("=")
        resolved = _resolve(target)
        if resolved is None:
            inst.missing.append(target)
            continue
        owner, attr, original = resolved
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, by_first_arg))
            else:
                wrapped = tracer.wrap(name, original, by_first_arg)
            inst.patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            inst.found[name] += 1
            continue
        wrapped = tracer.wrap(name, original, by_first_arg)
        for mod in [owner] if only_here else modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.patches.append((mod, key, original))
                    setattr(mod, key, wrapped)
                    inst.found[name] += 1
    return inst

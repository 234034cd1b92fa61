"""Spans around the engine's layers, installed from outside the package.

``Tracer.install`` replaces each public entry point under the name its
caller looks it up by (a module global or a class attribute) with a wrapper
that records a span: name, parent span, start and end.  ``Tracer.remove``
puts the originals back.  Spans stay in memory; ``layer_metrics`` reduces
them to per-layer counts and times, and ``write_spans`` saves them.

A layer's self time is its span's duration minus the durations of its child
spans.  Calls run on one thread, so child spans nest inside their parent.
"""

import json
import sys
from time import perf_counter_ns

# (module, attribute holder, attribute, span name).  The holder is the module
# itself, or a class in it; the attribute is the name the caller looks up.
SPANNED = (
    ("cli", None, "main", "cli.main"),
    ("cli", None, "parse_system", "sysparse.parse_system"),
    ("roottree", "RootTree", "run", "roottree.run"),
    ("roottree", "RootTree", "step", "roottree.step"),
    ("roottree", "RootTree", "grow", "roottree.grow"),
    ("roottree", "RootTree", "reinforce", "roottree.reinforce"),
    ("roottree", "RootTree", "extension_polynomial", "roottree.extension_polynomial"),
    ("roottree", "RootTree", "reinforcement_polynomial", "roottree.reinforcement_polynomial"),
    ("roottree", None, "compose", "upoly.compose"),
    ("roottree", None, "newton_polygon", "polygon.newton_polygon"),
    ("roottree", None, "is_unique", "polygon.is_unique"),
    ("roottree", None, "puiseux_expansion", "expansion.puiseux_expansion"),
    ("expansion", None, "is_unique", "polygon.is_unique"),
    ("expansion", None, "newton_polygon", "polygon.newton_polygon"),
    ("expansion", None, "roots_in_units", "residue.roots_in_units"),
    ("expansion", None, "initial_form", "upoly.initial_form"),
    ("polygon", None, "newton_polygon", "polygon.newton_polygon"),
    ("upoly", "UPoly", "shift_substitute", "upoly.shift_substitute"),
)

# operations of the scalar kernel: counted, not spanned, since they are the
# innermost and most frequent calls
COUNTED = (
    ("puiseux", "PuiseuxScalar", "__mul__", "puiseux.mul"),
    ("puiseux", "PuiseuxScalar", "__add__", "puiseux.add"),
)

ROOTTREE_SPANS = (
    "roottree.run", "roottree.step", "roottree.grow", "roottree.reinforce",
    "roottree.extension_polynomial", "roottree.reinforcement_polynomial",
)


def _note(name, args, result):
    """The detail a span keeps beside its times, or None."""
    if name == "upoly.compose":
        return sum(len(c.terms) for c in result.coeffs.values())
    if name == "polygon.is_unique":
        return bool(result)
    if name == "residue.roots_in_units":
        return "qq" if getattr(args[0].field, "p", None) is None else "fp"
    if name == "roottree.run":
        return max(float(v.prec) for v in args[0].vertices.values())
    return None


class Tracer:
    """Records spans into ``spans`` while installed: [name, parent, start_ns, end_ns, note]."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = {}
        self._stack = []
        self._saved = []

    def _holder(self, module, cls):
        mod = getattr(self.package, module)
        return getattr(mod, cls) if cls else mod

    def install(self):
        for module, cls, attr, name in SPANNED:
            holder = self._holder(module, cls)
            original = getattr(holder, attr, None)
            if original is None:
                print("trace: %s.%s not found, no %s spans" % (module, attr, name), file=sys.stderr)
                continue
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._spanned(name, original))
        for module, cls, attr, name in COUNTED:
            holder = self._holder(module, cls)
            original = getattr(holder, attr)
            self._saved.append((holder, attr, original))
            self.counts[name] = 0
            setattr(holder, attr, self._counted(name, original))

    def remove(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                stack.pop()
            record[4] = _note(name, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def write_spans(path, spans):
    """One JSON array per line: id, name, parent id (-1 for none), start_ns, end_ns, note."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid, (name, parent, start, end, note) in enumerate(spans):
            handle.write(json.dumps([sid, name, parent, start, end, note]) + "\n")


def layer_metrics(spans, counts):
    """Per-layer counts, times in seconds (inclusive, except ``self_s``) and ratios."""
    calls = {}
    total = {}
    self_ns = {}
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    polygon_outside_expansion = 0
    in_expansion = [False] * len(spans)
    is_unique_true = 0
    residue_ns = {"qq": 0, "fp": 0}
    out_terms = 0
    max_prec = 0.0
    for sid, (name, parent, start, end, note) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[sid]
        in_expansion[sid] = name == "expansion.puiseux_expansion" or (
            parent >= 0 and in_expansion[parent]
        )
        if name == "polygon.newton_polygon" and not in_expansion[sid]:
            polygon_outside_expansion += 1
        if note is None:
            continue  # the call raised
        if name == "polygon.is_unique":
            is_unique_true += note
        elif name == "residue.roots_in_units":
            residue_ns[note] += dur
        elif name == "upoly.compose":
            out_terms += note
        elif name == "roottree.run":
            max_prec = max(max_prec, note)

    def n(name):
        return calls.get(name, 0)

    def sec(table, name):
        return table.get(name, 0) / 1e9

    steps = n("roottree.step")
    unique_calls = n("polygon.is_unique")
    return {
        "upoly.compose.calls": n("upoly.compose"),
        "upoly.compose.s": sec(total, "upoly.compose"),
        "upoly.compose.out_terms": out_terms,
        "roottree.extension_polynomial.s": sec(total, "roottree.extension_polynomial"),
        "roottree.reinforcement_polynomial.s": sec(total, "roottree.reinforcement_polynomial"),
        "upoly.shift_substitute.calls": n("upoly.shift_substitute"),
        "upoly.shift_substitute.s": sec(total, "upoly.shift_substitute"),
        "expansion.puiseux_expansion.calls": n("expansion.puiseux_expansion"),
        "expansion.puiseux_expansion.s": sec(total, "expansion.puiseux_expansion"),
        "expansion.puiseux_expansion.self_s": sec(self_ns, "expansion.puiseux_expansion"),
        "upoly.initial_form.calls": n("upoly.initial_form"),
        "upoly.initial_form.s": sec(total, "upoly.initial_form"),
        "polygon.newton_polygon.calls": n("polygon.newton_polygon"),
        "polygon.newton_polygon.s": sec(total, "polygon.newton_polygon"),
        "polygon.builds_per_step": polygon_outside_expansion / steps if steps else 0.0,
        "polygon.is_unique.calls": unique_calls,
        "polygon.is_unique.s": sec(total, "polygon.is_unique"),
        "polygon.is_unique.true_ratio": is_unique_true / unique_calls if unique_calls else 0.0,
        "residue.roots_in_units.calls": n("residue.roots_in_units"),
        "residue.roots_in_units.s": sec(total, "residue.roots_in_units"),
        "residue.qq.s": residue_ns["qq"] / 1e9,
        "residue.fp.s": residue_ns["fp"] / 1e9,
        "roottree.step.calls": steps,
        "roottree.grow.calls": n("roottree.grow"),
        "roottree.reinforce.calls": n("roottree.reinforce"),
        "roottree.grow_ratio": n("roottree.grow") / steps if steps else 0.0,
        "roottree.max_prec": max_prec,
        "roottree.self_s": sum(self_ns.get(s, 0) for s in ROOTTREE_SPANS) / 1e9,
        "sysparse.parse_system.s": sec(total, "sysparse.parse_system"),
        "cli.main.self_s": sec(self_ns, "cli.main"),
        "puiseux.mul.calls": counts.get("puiseux.mul", 0),
        "puiseux.add.calls": counts.get("puiseux.add", 0),
    }


# metrics that count work rather than time it; they must repeat exactly
EXACT = (
    "upoly.compose.calls", "upoly.compose.out_terms", "upoly.shift_substitute.calls",
    "expansion.puiseux_expansion.calls", "upoly.initial_form.calls",
    "polygon.newton_polygon.calls", "polygon.builds_per_step", "polygon.is_unique.calls",
    "polygon.is_unique.true_ratio", "residue.roots_in_units.calls", "roottree.step.calls",
    "roottree.grow.calls", "roottree.reinforce.calls", "roottree.grow_ratio",
    "roottree.max_prec", "puiseux.mul.calls", "puiseux.add.calls",
)

"""Layer spans around the package's public functions, recorded from outside.

``Tracer.install`` swaps each traced function for a timing wrapper in every
``scarfrel`` module that holds a reference to it, so calls made inside the
package are seen as well; ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.  Spans stay in memory as tuples

    (name, start, end, parent, call_id, tag)

and deterministic counts are kept apart from them.  A layer's self time is
its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

ROOT = "cli"
COUNT_SPAN = "trace.count"


def _count_minimalize(counts, args, result):
    counts["monomial.generators"] += len(result.generators)


def _count_extract(counts, args, result):
    counts["systems.extract_states"] += math.prod(args[1])
    counts["systems.extract_points"] += len(result.generators)
    counts["monomial.generators"] += len(result.generators)


def _count_scarf(counts, args, result):
    counts["complexes.faces"] += len(result.faces)
    counts["complexes.distinct_labels"] += len({f.label for f in result.faces})
    counts["complexes.max_card"] = max(counts["complexes.max_card"], result.max_cardinality())


def _count_taylor(counts, args, result):
    counts["complexes.taylor_faces"] += len(result.faces)


def _count_report(counts, args, result):
    counts["analysis.depths"] += len(result.bounds)


def _count_bound(counts, args, result):
    counts["analysis.depths"] += 1


def _count_oracle(counts, args, result):
    counts["analysis.oracle_states"] += math.prod(args[0].level_counts())


def _dimension(args):
    return args[0].dimension


COUNT_NAMES = (
    "monomial.generators",
    "systems.extract_states",
    "systems.extract_points",
    "complexes.faces",
    "complexes.distinct_labels",
    "complexes.max_card",
    "complexes.taylor_faces",
    "analysis.depths",
    "analysis.oracle_states",
)

# (module, attribute, span name, counter, tagger).  An attribute written
# "Class.method" is patched on the class.  The Scarf builder span's tag is
# the ideal's dimension, which splits its time into the d=3 and d=8 rungs.
TARGETS = (
    ("scarfrel.specfile", "load_spec", "specfile.load", None, None),
    ("scarfrel.monomial", "minimalize", "monomial.minimalize", _count_minimalize, None),
    ("scarfrel.monomial", "nongeneric_witness", "monomial.witness", None, None),
    ("scarfrel.monomial", "is_generic", "monomial.witness", None, None),
    ("scarfrel.systems", "minimal_points_from_profit", "systems.extract", _count_extract, None),
    ("scarfrel.complexes", "deform", "complexes.deform", None, None),
    ("scarfrel.complexes", "deform_and_scarf", "complexes.scarf", _count_scarf, _dimension),
    ("scarfrel.complexes", "scarf_complex", "complexes.scarf", _count_scarf, _dimension),
    ("scarfrel.complexes", "LabeledComplex.__post_init__", "complexes.validate", None, None),
    ("scarfrel.complexes", "LabeledComplex.facets", "complexes.facets", None, None),
    ("scarfrel.complexes", "taylor_complex", "complexes.taylor", _count_taylor, None),
    ("scarfrel.analysis", "build_report", "analysis.report", _count_report, None),
    ("scarfrel.analysis", "reliability_identity", "analysis.identity", None, None),
    ("scarfrel.analysis", "tube_bounds", "analysis.tube", _count_bound, None),
    ("scarfrel.analysis", "bonferroni_bounds", "analysis.bonferroni", _count_bound, None),
    ("scarfrel.analysis", "brute_force_reliability", "analysis.oracle", _count_oracle, None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in TARGETS))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.call_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, name, count, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_id, tag and tag(args))
            if count is not None:
                # Counting is bookkeeping: give it a span of its own so it is
                # charged to the trace, not to the enclosing layer.
                count(self.counts, args, result)
                spans.append((COUNT_SPAN, end, perf_counter(), parent, self.call_id, None))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count, tag in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name, count, tag)
            if owner_name:
                self._undo.append((owner, method, original))
                setattr(owner, method, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "scarfrel":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def root(self, fn, *args):
        """Run ``fn(*args)`` as one CLI call: the root span of a new call id."""
        self.call_id += 1
        return self._wrap(fn, ROOT, None, None)(*args)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans, weight, keep=None) -> dict[str, float]:
    """Summed self time per span name (and per ``name.d<tag>`` when tagged).

    Each span's self time is multiplied by ``weight[call_id]``, its call's
    reference-speed factor.  ``keep`` filters by call id; spans of other
    calls are ignored.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, call, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent, call, tag) in enumerate(spans):
        if keep is not None and call not in keep:
            continue
        own = (end - start - child[i]) * weight[call]
        totals[name] = totals.get(name, 0.0) + own
        if tag is not None:
            key = f"{name}.d{tag}"
            totals[key] = totals.get(key, 0.0) + own
    return totals

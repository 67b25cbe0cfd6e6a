"""Per-layer tracing for the traced run.

The tracer wraps the package's public functions at the boundaries where
one module calls another (the names obstruct imports from contfrac,
contact and lattice, and the name contact imports from contfrac) and the
calls the benchmark itself makes.  Each call is a span; a span's self time
is its duration minus the time of the spans it encloses, so self times
add up to the time spent inside traced calls.  Spans are aggregated in
memory per name (calls, self seconds) and written out when the pass ends;
a census pass makes millions of them, too many to keep one by one.

Short vectors are enumerated inside the row search, where no public
boundary exists.  The traced run therefore calls short_vectors on every
distinct diagonal entry of each searched lattice first, then times the
search.  This assumes the package caches short vectors, so that the
search reuses them rather than enumerating them again.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

# Every span name the traced run can report; "<module>.<function>".
SPANS = (
    "contfrac.expand",
    "contfrac.cf_invariants",
    "contact.enumerate_structures",
    "contact.chern_residue",
    "contact.classify_structure",
    "obstruct.decide_theorem",
    "obstruct.evaluate_one",
    "lattice.gram",
    "lattice.short_vectors",
    "lattice.search.witness",
    "lattice.search.capped",
    "lattice.search.absent",
    "lattice.orthogonal_group",
    "cli.render",
)
# Counts kept at the same boundaries, with their units.
COUNTS = {
    "contact.structures": "count",
    "cli.render.bytes": "bytes",
    "lattice.short_vectors.vectors": "count",
    "lattice.group_elements": "count",
    "obstruct.cross_validate.calls": "count",
    "obstruct.cross_validate.s": "s",
}


class Tracer:
    """Span aggregates for one pass: name -> [calls, self seconds]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {name: [0, 0.0] for name in SPANS}
        self.counts: dict[str, float] = {name: 0 for name in COUNTS}
        # Time covered by child spans, one entry per open span.
        self._open: list[float] = []
        self._last_theorem_reason = None

    def span(self, name: str, fn: Callable, name_of: Callable | None = None) -> Callable:
        """fn wrapped so that each call records a span.  name_of, when
        given, picks the span name from the call's result."""
        stack = self._open
        spans = self.spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
            agg = spans[name_of(result) if name_of else name]
            agg[0] += 1
            agg[1] += took - inner
            return result

        return traced

    def counted(self, fn: Callable, count: str, size: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[count] += size(result)
            return result

        return wrapper

    def install(self) -> dict[str, Callable]:
        """Wrap the package's boundaries in place and return the traced
        functions the benchmark loop calls."""
        import lensmilnor.contact as contact
        import lensmilnor.lattice as lattice
        import lensmilnor.obstruct as obstruct
        from lensmilnor.contfrac import cf_invariants, expand

        theorem_reasons = {
            obstruct.Reason.THEOREM_B, obstruct.Reason.THEOREM_CI, obstruct.Reason.THEOREM_CII
        }
        t_expand = self.span("contfrac.expand", expand)
        t_enumerate = self.span(
            "contact.enumerate_structures",
            self.counted(contact.enumerate_structures, "contact.structures", len),
        )
        t_short_vectors = self.span(
            "lattice.short_vectors",
            self.counted(lattice.short_vectors, "lattice.short_vectors.vectors", len),
        )
        t_search = self.span(
            "lattice.search",
            lattice.find_isometry_with_trace,
            name_of=lambda s: "lattice.search."
            + ("witness" if s.witness is not None else "absent" if s.complete else "capped"),
        )
        t_group = self.span(
            "lattice.orthogonal_group",
            self.counted(lattice.orthogonal_group, "lattice.group_elements", lambda g: g.order),
        )
        decide_theorem = self.span("obstruct.decide_theorem", obstruct.decide_theorem)

        def remember_reason(*args, **kwargs):
            verdict = decide_theorem(*args, **kwargs)
            self._last_theorem_reason = verdict.reason
            return verdict

        def search(lat, trace, cap):
            # decide_full searches after a theorem verdict only to
            # cross-validate it.
            cross = self._last_theorem_reason in theorem_reasons
            start = perf_counter()
            for a in sorted(set(lat.diag)):
                t_short_vectors(lat, a)
            result = t_search(lat, trace, cap)
            if cross:
                self.counts["obstruct.cross_validate.calls"] += 1
                self.counts["obstruct.cross_validate.s"] += perf_counter() - start
            return result

        def group(lat, cap):
            for a in sorted(set(lat.diag)):
                t_short_vectors(lat, a)
            return t_group(lat, cap)

        obstruct.expand = t_expand
        obstruct.enumerate_structures = t_enumerate
        obstruct.chern_residue = self.span("contact.chern_residue", contact.chern_residue)
        obstruct.classify_structure = self.span(
            "contact.classify_structure", contact.classify_structure
        )
        obstruct.decide_theorem = remember_reason
        obstruct.evaluate_one = self.span("obstruct.evaluate_one", obstruct.evaluate_one)
        obstruct.gram = self.span("lattice.gram", lattice.gram)
        obstruct.find_isometry_with_trace = search
        contact.cf_invariants = self.span("contfrac.cf_invariants", cf_invariants)
        return {
            "expand": t_expand,
            "enumerate_structures": t_enumerate,
            "evaluate_one": obstruct.evaluate_one,
            "orthogonal_group": group,
        }

    def render(self, fn: Callable) -> Callable:
        return self.span("cli.render", self.counted(fn, "cli.render.bytes", len))

    def attributed_s(self) -> float:
        return sum(agg[1] for agg in self.spans.values())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self_s
        out.update(self.counts)
        return out

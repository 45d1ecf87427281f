"""Per-layer tracing by patching omegacalc from the outside.

``Tracer.install`` wraps the public functions of each omegacalc module and
the hot ``Matroid``/``FlatLattice``/``ChainPathCounter`` methods.  Every
module binding that refers to a wrapped function (including names bound
by ``from ... import``) is replaced, so calls between modules are seen
too.  Nothing under ``src/`` is changed.

A span records (name, start, end, parent, input id); spans stay in memory
and are written out by ``write_spans`` when the pass ends.  A layer's
self time is the sum of its spans' durations minus the time covered by
their child spans.  Hot methods (``rank``, ``mobius``, path pushes) are
counted, not spanned; their time lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

VARIANTS = [
    "inward-sets", "outward-sets", "inward-flats", "outward-flats",
    "crowded-sets", "crowded-flats", "record-sets", "record-flats",
    "final-sets", "final-flats",
]
SET_VARIANTS = {"inward-sets", "outward-sets"}
IDENTITY_KINDS = ["inward-sets", "outward-sets", "inner-flats", "outer-flats"]

SPAN_LAYERS = (
    ["specfile.load", "matroid.validate", "matroid.construct", "matroid.minors",
     "matroid.rank_table", "matroid.closure", "matroid.components",
     "matroid.simplify", "lattice.flats", "crowding.crowded_sets",
     "crowding.crowded_flats", "crowding.records", "crowding.overcrowded",
     "closedform"]
    + [f"chainsums.{v}" for v in VARIANTS]
    + ["chainsums.schubert", "altsum"]
    + [f"polytopes.identity.{k}" for k in IDENTITY_KINDS]
    + ["polytopes.subset_sums", "corpus.sample_points", "engine.compute_omega"]
)
COUNTERS = (
    ["matroid.validate.bases", "matroid.minors.calls", "matroid.rank_table.builds",
     "matroid.rank.queries", "matroid.closure.calls", "matroid.components.calls",
     "lattice.flats.count", "lattice.mobius.lookups", "crowding.records.scanned",
     "closedform.calls"]
    + [f"chainsums.{v}.chains" for v in VARIANTS]
    + ["paths.push.calls", "paths.completed.calls", "altsum.calls",
       "polytopes.identity.points", "polytopes.subset_sums.calls"]
)
RATIOS = {
    # name: (numerator counter, denominator counter)
    "crowding.records.hit_frac": ("crowding.records.hits", "crowding.records.scanned"),
    "closedform.hit_frac": ("closedform.hits", "closedform.calls"),
    "paths.push.alive_frac": ("paths.push.alive", "paths.push.calls"),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in report order."""
    return [f"{s}.s" for s in SPAN_LAYERS] + COUNTERS + list(RATIOS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.input_id = ""
        self._stack: list[list] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, after=None, before=None):
        """Wrap fn in a span; name may be a function of the call arguments.

        before(args) runs ahead of the call and its value is handed to
        after(args, result, token) once the call has returned.
        """
        spans, stack, self_time = self.spans, self._stack, self.self_time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            token = before(args) if before else None
            frame = [perf_counter(), 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                self_time[label] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                spans[frame[2]] = (label, frame[0], end, parent, tracer.input_id)
            if after:
                after(args, result, token)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from omegacalc import (
            altsum, chainsums, closedform, corpus, crowding, engine, lattice,
            matroid, paths, polytopes, specfile,
        )

        counts = self.counts
        Matroid = matroid.Matroid
        replaced: dict[int, object] = {}

        def patch_function(module, attr, wrapper_of):
            original = getattr(module, attr)
            replaced[id(original)] = wrapper_of(original)

        def patch_method(cls, attr, wrapper_of):
            setattr(cls, attr, wrapper_of(getattr(cls, attr)))

        # specfile and matroid construction
        patch_function(specfile, "load_matroid_file", lambda f: self.span("specfile.load", f))

        def count_bases(args, result, token):
            counts["matroid.validate.bases"] += len(result.bases)

        patch_function(matroid, "from_bases", lambda f: self.span("matroid.validate", f, count_bases))
        for attr in ("uniform", "schubert_lower", "schubert_upper", "schubert_from_order"):
            patch_function(matroid, attr, lambda f: self.span("matroid.construct", f))

        def count_call(key):
            def after(args, result, token):
                counts[key] += 1
            return after

        for attr in ("delete", "contract", "restrict", "dual", "direct_sum"):
            patch_method(Matroid, attr, lambda f: self.span("matroid.minors", f, count_call("matroid.minors.calls")))

        def ensure_rank_table_of(f):
            # only a call that fills the table is a build, and gets a span
            build = self.span("matroid.rank_table", f, count_call("matroid.rank_table.builds"))

            @functools.wraps(f)
            def wrapper(m):
                if getattr(m, "_rank_table", None) is None:
                    return build(m)
                return f(m)

            return wrapper

        patch_method(Matroid, "ensure_rank_table", ensure_rank_table_of)
        patch_method(Matroid, "rank", lambda f: self.counter("matroid.rank.queries", f))
        patch_method(Matroid, "closure", lambda f: self.span("matroid.closure", f, count_call("matroid.closure.calls")))
        for attr in ("connected_components", "restriction_components"):
            patch_method(Matroid, attr, lambda f: self.span("matroid.components", f, count_call("matroid.components.calls")))
        patch_method(Matroid, "simplify", lambda f: self.span("matroid.simplify", f))

        # lattice
        def flats_before(args):
            return getattr(args[0], "_flat_lattice", None) is None

        def count_flats(args, result, built):
            if built:
                counts["lattice.flats.count"] += len(result)

        patch_function(lattice, "flat_lattice", lambda f: self.span("lattice.flats", f, count_flats, flats_before))
        patch_method(lattice.FlatLattice, "mobius", lambda f: self.counter("lattice.mobius.lookups", f))

        # crowding
        patch_function(crowding, "crowded_sets", lambda f: self.span("crowding.crowded_sets", f))
        patch_function(crowding, "crowded_flats", lambda f: self.span("crowding.crowded_flats", f))
        patch_function(crowding, "has_overcrowded_set", lambda f: self.span("crowding.overcrowded", f))

        def record_before(args):
            m, mask = args
            return mask not in getattr(m, "_records", ())

        def count_record(args, result, scanned):
            if scanned:
                counts["crowding.records.scanned"] += 1
                counts["crowding.records.hits"] += bool(result)

        patch_function(crowding, "is_crowding_record", lambda f: self.span("crowding.records", f, count_record, record_before))

        # closed forms: calls and hits of the outermost dispatch only
        depth = [0]

        def closed_before(args):
            depth[0] += 1
            return depth[0] == 1

        def count_closed(args, result, outermost):
            depth[0] -= 1
            if outermost:
                counts["closedform.calls"] += 1
                counts["closedform.hits"] += result is not None

        def closed_of(f):
            traced = self.span("closedform", f, count_closed, closed_before)

            @functools.wraps(f)
            def wrapper(m):
                try:
                    return traced(m)
                except BaseException:
                    depth[0] -= 1
                    raise

            return wrapper

        patch_function(closedform, "omega_closed_form", closed_of)

        # chain sums: the set sums are evaluated path by path, so their
        # "chains" are the per-path alternating sums they evaluate
        def covalue_before(args):
            return counts["altsum.calls"]

        def count_chains(args, result, altsum_before):
            variant = args[1].value
            if variant in SET_VARIANTS:
                counts[f"chainsums.{variant}.chains"] += counts["altsum.calls"] - altsum_before
            else:
                counts[f"chainsums.{variant}.chains"] += result.chains or 0

        patch_function(
            chainsums, "covalue",
            lambda f: self.span(lambda a: f"chainsums.{a[1].value}", f, count_chains, covalue_before),
        )
        patch_function(chainsums, "schubert_omega", lambda f: self.span("chainsums.schubert", f))

        def push_of(f):
            @functools.wraps(f)
            def wrapper(*args):
                counts["paths.push.calls"] += 1
                alive = f(*args)
                counts["paths.push.alive"] += bool(alive)
                return alive

            return wrapper

        patch_method(paths.ChainPathCounter, "push", push_of)
        patch_method(paths.ChainPathCounter, "completed_count", lambda f: self.counter("paths.completed.calls", f))
        patch_function(altsum, "alternating_chain_sum", lambda f: self.span("altsum", f, count_call("altsum.calls")))

        # identities and sampling
        patch_function(
            polytopes, "check_identity",
            lambda f: self.span(lambda a: f"polytopes.identity.{a[1].value}", f, count_call("polytopes.identity.points")),
        )
        patch_function(polytopes, "subset_sums", lambda f: self.span("polytopes.subset_sums", f, count_call("polytopes.subset_sums.calls")))
        patch_function(corpus, "sample_points", lambda f: self.span("corpus.sample_points", f))
        patch_function(engine, "compute_omega", lambda f: self.span("engine.compute_omega", f))

        # rebind every module-level name that refers to a wrapped function
        for name, module in list(sys.modules.items()):
            if name != "omegacalc" and not name.startswith("omegacalc."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.s"] = self.self_time.get(layer, 0.0)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        for key, (num, den) in RATIOS.items():
            d = self.counts.get(den, 0)
            out[key] = self.counts.get(num, 0) / d if d else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

"""Span tracer for the benchmark's traced runs.

Wraps a fixed list of the package's public functions, module by module,
and records one span per call: name, start, end, parent span and op id.
Spans stay in memory until the run ends.  Self time is a span's duration
minus the time its child spans cover.

Modules import by name (``from .fingroup import closure``), so a function
is replaced in every ``drinfeld`` module namespace that binds it; methods
are replaced on their class.  Field, matrix and polynomial arithmetic is
deliberately left unwrapped: it runs far too often, and its cost lands in
the caller's self time.
"""

import json
import sys
import time

# (module, attribute path, extra-stat extractor name or None)
TARGETS = [
    ("fingroup", "closure", "size"),
    ("fingroup", "core_in", None),
    ("fingroup", "derived_subgroup", None),
    ("fingroup", "small_generating_set", None),
    ("matgroups", "ResidueMatrixGroup.elements", None),
    ("poly", "ResidueRing.tables", "identity"),
    ("subspace", "rref", "rref"),
    ("subgroups", "quasi_level", "residues"),
    ("subgroups", "congruence_image", None),
    ("subgroups", "is_congruence", None),
    ("subgroups", "largest_ideal_inside", None),
    ("amalgam", "TableHom.validate", None),
    ("amalgam", "matrix_to_word", None),
    ("amalgam", "hom_from_json", None),
    ("autos", "apply_auto", None),
    ("autos", "compose_with_inverse", None),
    ("autos", "transform_quasi_level", None),
    ("autos", "refute_genuineness", "refutation"),
    ("genuine", "verdict", None),
    ("genuine", "factor_certificate", None),
    ("genuine", "low_index_scan", None),
    ("cli", "main", None),
]


def span_name(module, path):
    """Metric prefix: methods of the enumerating classes are named by module."""
    if path in ("ResidueMatrixGroup.elements", "ResidueRing.tables"):
        path = path.split(".")[1]
    return f"{module}.{path}"


def _extra(kind, args, result):
    if kind == "size":
        return int(result.size)
    if kind == "identity":
        return id(result)
    if kind == "rref":
        return [len(args[1]), len(result[0])]
    if kind == "residues":
        return int(result.F.p ** (result.F.n * result.conductor.gen.degree))
    if kind == "refutation":
        return [int(result.tried), result.status == "refuted"]
    return None


class Tracer:
    """Records spans while ``op`` is not None; inert otherwise."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, self_s, extra]
        self.stack = []
        self.op = None
        self.missing = []
        self._keep = []  # results whose id() marks a table build

    def _wrap(self, name, fn, kind):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer.stack[-1][0] if tracer.stack else None,
                    tracer.op, name, 0.0, 0.0, 0.0, None]
            tracer.spans.append(span)
            frame = [span[0], 0.0]  # id, time covered by children
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span[4], span[5], span[6] = start, end, end - start - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += end - start
            if kind is not None:
                span[7] = _extra(kind, args, result)
                if kind == "identity":
                    tracer._keep.append(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Import the package and wrap every target it still defines."""
        import importlib

        for module, path, kind in TARGETS:
            try:
                mod = importlib.import_module(f"drinfeld.{module}")
            except ImportError:
                self.missing.append(span_name(module, path))
                continue
            owner = mod
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(span_name(module, path))
                continue
            wrapped = self._wrap(span_name(module, path), fn, kind)
            if parents:
                setattr(owner, attr, wrapped)
                continue
            for name, m in list(sys.modules.items()):
                if m is None or not (name == "drinfeld" or name.startswith("drinfeld.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
        if self.missing:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)

    def dump(self, path):
        """Write the spans as JSON lines: id, parent, op, name, start, end,
        self time, extra stat."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


LAYER_METRICS = [
    ("fingroup.closure.calls", "count"),
    ("fingroup.closure.self_s", "s"),
    ("fingroup.closure.elements", "count"),
    ("fingroup.core_in.self_s", "s"),
    ("fingroup.derived_subgroup.self_s", "s"),
    ("fingroup.small_generating_set.self_s", "s"),
    ("matgroups.elements.calls", "count"),
    ("matgroups.elements.self_s", "s"),
    ("matgroups.elements.hit_ratio", "ratio"),
    ("poly.tables.calls", "count"),
    ("poly.tables.builds", "count"),
    ("poly.tables.self_s", "s"),
    ("subspace.rref.calls", "count"),
    ("subspace.rref.rows_in", "count"),
    ("subspace.rref.rows_per_rank", "ratio"),
    ("subspace.rref.self_s", "s"),
    ("subgroups.quasi_level.calls", "count"),
    ("subgroups.quasi_level.self_s", "s"),
    ("subgroups.quasi_level.residues", "count"),
    ("subgroups.congruence_image.calls", "count"),
    ("subgroups.congruence_image.self_s", "s"),
    ("subgroups.is_congruence.calls", "count"),
    ("subgroups.largest_ideal_inside.self_s", "s"),
    ("amalgam.TableHom.validate.calls", "count"),
    ("amalgam.TableHom.validate.self_s", "s"),
    ("amalgam.matrix_to_word.calls", "count"),
    ("amalgam.matrix_to_word.self_s", "s"),
    ("amalgam.hom_from_json.self_s", "s"),
    ("autos.apply_auto.calls", "count"),
    ("autos.apply_auto.self_s", "s"),
    ("autos.compose_with_inverse.self_s", "s"),
    ("autos.transform_quasi_level.self_s", "s"),
    ("autos.refute_genuineness.tried", "count"),
    ("autos.refute_genuineness.refuted_ratio", "ratio"),
    ("genuine.verdict.calls", "count"),
    ("genuine.verdict.self_s", "s"),
    ("genuine.factor_certificate.self_s", "s"),
    ("genuine.low_index_scan.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def layer_stats(groups):
    """Per-layer metrics from span lists, one list per traced process.

    Span ids and table identities are only compared within one list.
    Metrics of functions that no longer exist read 0.
    """
    out = {name: 0 for name, _ in LAYER_METRICS}
    tables_seen = rank = refute_calls = refuted = elements = hits = 0
    for spans in groups:
        closure_parents = {s[1] for s in spans if s[3] == "fingroup.closure"}
        seen = set()
        for s in spans:
            name, extra = s[3], s[7]
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += s[6]
            if name == "fingroup.closure":
                out["fingroup.closure.elements"] += extra
            elif name == "poly.tables":
                seen.add(extra)
            elif name == "matgroups.elements":
                elements += 1
                hits += s[0] not in closure_parents
            elif name == "subspace.rref":
                out["subspace.rref.rows_in"] += extra[0]
                rank += extra[1]
            elif name == "subgroups.quasi_level":
                out["subgroups.quasi_level.residues"] += extra
            elif name == "autos.refute_genuineness":
                out["autos.refute_genuineness.tried"] += extra[0]
                refute_calls += 1
                refuted += extra[1]
        tables_seen += len(seen)
    out["poly.tables.builds"] = tables_seen
    out["matgroups.elements.hit_ratio"] = hits / elements if elements else 0.0
    rows = out["subspace.rref.rows_in"]
    out["subspace.rref.rows_per_rank"] = rows / rank if rank else 0.0
    out["autos.refute_genuineness.refuted_ratio"] = refuted / refute_calls if refute_calls else 0.0
    return out

"""The benchmark's workloads: seeded inputs, one op, and its answer check.

Inputs come one schedule cycle at a time and depend only on the seed and
the cycle number.  Every cycle has the same family mix: a fixed list of
input classes, with the seed drawing the input inside each class.
Handles follow the recipe of ``verify.campaign_pairs``: abelian
translation quotients ``from_quasilevel_abelian(W, t^a (t-1)^b)``.
Classes are chosen so that no op reaches a size cap of the default
``RunConfig``, and so that each cost group is narrow enough for the
median and 90th-percentile op to fall inside one group.

A workload object provides:

* ``cycle(seed, k)``: the k-th cycle's inputs, a list of ``Op``;
* ``run(op)``: the timed call into the package; returns the answer;
* ``answer_json(op, answer)``: canonical JSON form, digested in op order;
* ``check(op, answer)``: ``None`` if the answer is right, else a reason.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

import numpy as np

from drinfeld import amalgam, autos, fields, genuine, poly, subgroups, subspace, verify
from drinfeld.config import DEFAULT_CONFIG, RunConfig
from drinfeld.fingroup import closure
from drinfeld.mat2 import mat_over_polys, reduce_mat
from drinfeld.matgroups import ResidueMatrixGroup, mat_code

ROOT = Path(__file__).resolve().parents[1]
QUICK = RunConfig(search_budget=0)


@dataclass
class Op:
    family: str
    args: dict = dc_field(default_factory=dict)
    index: int = -1  # position in the run, set by the worker


# -- input recipes ---------------------------------------------------------


def split_modulus(F, a, b):
    """t^a (t-1)^b, the campaign's split modulus shape."""
    f = poly.t_power(F, a)
    root = poly.Poly(F, [F.neg(1), 1])
    for _ in range(b):
        f = f * root
    return f


def draw_subspace(F, d, dim, rng):
    """A random subspace of F^d of exactly the given dimension."""
    while True:
        rows = [tuple(int(x) for x in rng.integers(0, F.q, d)) for _ in range(dim)]
        W = subspace.SubspaceDesc(F, d, rows)
        if W.dim == dim:
            return W


def draw_corner_map(F, block, rng):
    """Invertible linear corner map on degrees below ``block`` fixing 1."""
    one_row = tuple(1 if i == 0 else 0 for i in range(block))
    while True:
        rows = [one_row] + [
            tuple(int(x) for x in rng.integers(0, F.q, block)) for _ in range(block - 1)
        ]
        if subspace.SubspaceDesc(F, block, rows).dim == block:
            return autos.NonStandardAuto(F.label, tuple(poly.Poly(F, r) for r in rows))


def sl2_order(f):
    """Order of SL2(F_q[t]/f) from the factorization of f."""
    n = 1
    for p, e in poly.factorize(f)[1]:
        s = p.norm_size()
        n *= s ** (3 * e) * (s * s - 1) // (s * s)
    return n


def within_caps(handle, config=DEFAULT_CONFIG):
    """A-priori bound: every group a verdict closes fits the group cap.

    The product closure in ``congruence_image`` lives in target x
    SL2(F_q[t]/level), and the level divides the conductor.
    """
    cond = handle.hom.conductor.gen
    F = handle.F
    if F.p ** (F.n * cond.degree) > config.enum_cap:
        return False
    return int(handle.target.order()) * sl2_order(cond) <= config.group_cap


@lru_cache(maxsize=None)
def class_subspaces(q, d, b, dim, generic=False):
    """Every quasi-level subspace of handle class (q, d, b, dim), checked
    once against the caps (the bound depends on the class, not on W).

    ``generic`` keeps only the subspaces whose pivots are the lowest dim
    coordinates (graphs over them).  Over t^d these handles have level
    t^d and all take the same verdict path at about the same cost.
    """
    F = fields.field(q)
    pool = [
        W for W in subspace.iter_subspaces(F, d, dim)
        if not generic or W.pivots == tuple(range(dim))
    ]
    modulus = split_modulus(F, d - b, b)
    if not within_caps(subgroups.from_quasilevel_abelian(pool[0], modulus)):
        raise ValueError(f"handle class {(q, d, b, dim)} is above the default caps")
    return modulus, pool


def class_handles(slots, seed, k):
    """Handles for cycle k of a slot list of classes (q, d, b, dim[, generic]).

    Campaign-style handles: the quotient of F_q[t] by t^(d-b) (t-1)^b
    with a quasi-level subspace W of dimension dim.  The j-th use of a
    class in a run takes W from a seeded permutation of all the class's
    subspaces (a fresh permutation per pass), so every W of a class is
    used equally often and a run's cost barely depends on the seed.
    """
    per_cycle = {c: slots.count(c) for c in slots}
    seen = {}
    out = []
    for c in slots:
        j = k * per_cycle[c] + seen.get(c, 0)
        seen[c] = seen.get(c, 0) + 1
        modulus, pool = class_subspaces(*c)
        n = len(pool)
        order = np.random.default_rng((seed, *c, j // n)).permutation(n)
        out.append(subgroups.from_quasilevel_abelian(pool[order[j % n]], modulus))
    return out


def ql_to_json(ql):
    payload = subgroups.ql_to_json(ql)
    payload["prime_dim"] = ql.prime_dim
    payload["prime_codim"] = ql.prime_codim
    payload["is_ideal"] = ql.is_ideal()
    return payload


def congruence_bit(provenance):
    if "congruence:True" in provenance:
        return True
    if "congruence:False" in provenance:
        return False
    return None


# -- verdict-scan ----------------------------------------------------------


class VerdictScan:
    """``genuine.verdict`` at search budget 0, plus one small scan per cycle."""

    name = "verdict-scan"
    # handle classes (q, d, b, dim[, generic]) per slot, in three cost
    # groups on the seed code: decided by the congruence test (~5 ms),
    # F_2 no-decision after two product closures at level t^4 (~105 ms),
    # F_3 index filter after a product closure at level t^3 (~250 ms).
    # The median op falls inside the middle group and the 90th percentile
    # inside the top one.  F_3 stops at degree 3: SL2 over a degree-4 F_3
    # quotient is above the default group cap.
    SLOTS = [
        (2, 2, 0, 1), (2, 3, 1, 1), (2, 4, 2, 2), (3, 2, 1, 1),
        (2, 4, 0, 2, True), (2, 4, 0, 2, True), (2, 4, 0, 2, True), (2, 4, 0, 2, True),
        (3, 3, 0, 2, True), (3, 3, 0, 2, True), (3, 3, 0, 2, True),
    ]
    SCANS = [(2, 3, 6), (3, 2, 9)]  # (q, bound degree, max index), alternating

    def __init__(self):
        self.oracle_cache = {}

    def cycle(self, seed, k):
        ops = [
            Op("verdict-F{}-d{}-b{}-w{}".format(*c) + ("-generic" if c[4:] else ""), {"handle": h})
            for c, h in zip(self.SLOTS, class_handles(self.SLOTS, seed, k))
        ]
        q, b, mi = self.SCANS[k % len(self.SCANS)]
        ops.append(Op(f"scan-F{q}-t{b}", {"q": q, "bound": b, "max_index": mi}))
        return ops

    def run(self, op):
        if op.family.startswith("scan"):
            F = fields.field(op.args["q"])
            return genuine.low_index_scan(
                op.args["q"], "SL", max_index=op.args["max_index"],
                bound=poly.t_power(F, op.args["bound"]), config=QUICK,
            )
        return genuine.verdict(op.args["handle"], QUICK)

    def answer_json(self, op, answer):
        if op.family.startswith("scan"):
            return answer
        return genuine.verdict_to_json(answer)

    def check(self, op, answer):
        if op.family.startswith("scan"):
            return self._check_scan(op, answer)
        handle = op.args["handle"]
        cong = congruence_bit(answer.provenance)
        if cong is None or "cap-skipped" in " ".join(answer.provenance):
            return "verdict hit a size cap"
        level = subgroups.quasi_level(handle, DEFAULT_CONFIG).level
        oracle = verify.transversal_congruence_oracle(
            handle, level, DEFAULT_CONFIG, self.oracle_cache
        )
        if oracle != cong:
            return "congruence bit disagrees with the transversal oracle"
        if answer.outcome == "Genuine":
            q = handle.F.q
            if handle.index_in_domain(DEFAULT_CONFIG.group_cap) % (q * q):
                return "Genuine verdict with index not divisible by q^2"
            if not genuine.recheck_certificate(answer):
                return "Genuine certificate does not recheck"
        return None

    def _check_scan(self, op, report):
        q = op.args["q"]
        F = fields.field(q)
        for e in report["entries"]:
            if e["outcome"] == "CapSkipped" or e["reason"] == "cap-exceeded":
                return "scan entry hit a size cap"
            modulus = poly.poly_from_string(F, e["modulus"])
            if e["family"] == "abelian-quotient":
                rows = [tuple(fields.DIGIT_CHARS.index(ch) for ch in r) for r in e["basis"]]
                W = subspace.subspace(F, modulus.degree, rows)
                handle = subgroups.from_quasilevel_abelian(W, modulus)
            else:
                hom = amalgam.ReductionHom(poly.residue_ring(modulus), "SL")
                handle = subgroups.principal_congruence_handle(hom, poly.MonicIdeal(modulus))
            level = subgroups.quasi_level(handle, DEFAULT_CONFIG).level
            oracle = verify.transversal_congruence_oracle(
                handle, level, DEFAULT_CONFIG, self.oracle_cache
            )
            if oracle != e["congruence"]:
                return f"scan entry {e['modulus']} disagrees with the transversal oracle"
            if e["outcome"] == "Genuine" and e["index"] % (q * q):
                return "Genuine scan entry with index not divisible by q^2"
        return None


# -- refute-search ---------------------------------------------------------


class RefuteSearch:
    """``autos.refute_genuineness`` at the default budget, F_2 handles only."""

    name = "refute-search"
    # handle classes (q, d, b, dim) by their outcome on the seed code:
    # already congruence (~5 ms), mostly refuted by a corner map (~30 ms),
    # search exhausted after the coordinate shifts (~200 ms; the first
    # one builds ring tables up to size 256).  The median op falls inside
    # the middle group and the 90th percentile inside the top one.
    SLOTS = [
        (2, 3, 1, 1), (2, 3, 2, 2), (2, 4, 2, 2),
        (2, 4, 0, 3), (2, 4, 0, 3), (2, 4, 0, 3), (2, 4, 4, 3), (2, 4, 4, 3),
        (2, 4, 0, 1), (2, 4, 4, 1), (2, 4, 0, 1), (2, 4, 4, 1),
    ]

    def cycle(self, seed, k):
        return [
            Op("refute-F2-d{1}-b{2}-w{3}".format(*c), {"handle": h})
            for c, h in zip(self.SLOTS, class_handles(self.SLOTS, seed, k))
        ]

    def run(self, op):
        return autos.refute_genuineness(op.args["handle"], DEFAULT_CONFIG)

    def answer_json(self, op, answer):
        return autos.refutation_to_json(answer)

    def check(self, op, answer):
        handle = op.args["handle"]
        if answer.status == "already_congruence":
            return None if answer.report.congruence else "already_congruence without congruence"
        if answer.status != "refuted":
            return None if answer.status == "no_refutation_found" else answer.status
        parts = answer.auto if isinstance(answer.auto, list) else [answer.auto]
        for part in parts:
            part.validate(handle.F, handle.kind)
        moved = autos.apply_auto(answer.auto, handle, DEFAULT_CONFIG)
        if not subgroups.is_congruence(moved, DEFAULT_CONFIG).congruence:
            return "refuting automorphism does not give a congruence subgroup"
        cap = DEFAULT_CONFIG.group_cap
        if moved.index_in_domain(cap) != handle.index_in_domain(cap):
            return "refuting automorphism changed the index"
        return None


# -- ql-transport ----------------------------------------------------------


class QlTransport:
    """Quasi-level, image under an automorphism, and the transform law."""

    name = "ql-transport"
    # (q, modulus degree of t^d, codimension, automorphism, corner block).
    # "shift" is t -> a t + b with b != 0, which raises the conductor, so
    # it is kept to small moduli; "scale" is t -> a t.  Members of the
    # quasi-level run from ~30 to ~2000 rows.
    # Cost groups on the seed code: ~15 ms, ~40 ms (the median op),
    # ~70 ms, ~140 ms (the 90th percentile, 1024 rows) and one ~300 ms
    # slot with 2048 rows above it.
    SLOTS = [
        (2, 6, 1, "shift", 0), (2, 8, 2, "corner", 3), (2, 8, 1, "shift", 0),
        (3, 3, 1, "shift", 0), (3, 5, 1, "scale", 0),
        (2, 10, 2, "corner", 4), (2, 10, 2, "corner", 2), (3, 7, 2, "scale", 0), (3, 7, 2, "scale", 0),
        (2, 10, 1, "corner", 2), (3, 7, 1, "corner", 2),
        (2, 11, 1, "corner", 3), (2, 11, 1, "corner", 4), (2, 11, 1, "corner", 3), (2, 11, 1, "corner", 4),
        (2, 12, 1, "corner", 2),
    ]

    def cycle(self, seed, k):
        rng = np.random.default_rng((seed, k))
        ops = []
        for q, d, codim, kind, block in self.SLOTS:
            F = fields.field(q)
            W = draw_subspace(F, d, d - codim, rng)
            handle = subgroups.from_quasilevel_abelian(W, poly.t_power(F, d))
            if kind == "corner":
                auto = draw_corner_map(F, block, rng)
            else:
                a = int(rng.integers(1, q))
                b = int(rng.integers(1, q)) if kind == "shift" else 0
                auto = autos.RingAuto(F.label, a, b, 0)
            ops.append(Op(f"ql-F{q}-d{d}-c{codim}-{kind}{block or ''}", {"handle": handle, "auto": auto}))
        return ops

    def run(self, op):
        handle, auto = op.args["handle"], op.args["auto"]
        ql = subgroups.quasi_level(handle, DEFAULT_CONFIG)
        moved = autos.apply_auto(auto, handle, DEFAULT_CONFIG)
        recomputed = subgroups.quasi_level(moved, DEFAULT_CONFIG)
        return ql, recomputed, autos.transform_quasi_level(auto, ql)

    def answer_json(self, op, answer):
        ql, recomputed, closed = answer
        return {
            "auto": autos.auto_to_json(op.args["auto"]),
            "ql": ql_to_json(ql),
            "moved": ql_to_json(recomputed),
            "closed_form": ql_to_json(closed),
        }

    def check(self, op, answer):
        _, recomputed, closed = answer
        if not autos.quasi_levels_agree(closed, recomputed):
            return "closed-form quasi-level disagrees with the recomputed one"
        return None


# -- cli-cold --------------------------------------------------------------


class CliCold:
    """One ``python -m drinfeld <verb> --json`` child process per op."""

    name = "cli-cold"
    # verb and handle class (q, d, b, dim) on even / odd cycles.  Verdicts
    # (default budget) and refutations take F_2 classes that are settled
    # by the index filter or an early corner map, so every child costs
    # about the same.  Oracle verbs take (q, modulus degree).
    VERBS = [
        ("subgroup congruence", (2, 4, 0, 2), (3, 2, 0, 1)),
        ("subgroup ql", (2, 4, 4, 2), (3, 3, 0, 2)),
        ("genuine verdict", (2, 4, 0, 3), (2, 4, 4, 3)),
        ("auto refute", (2, 4, 0, 3), (2, 3, 0, 2)),
        ("oracle enumerate", (2, 3), (3, 2)),
        ("oracle closure", (3, 2), (2, 3)),
    ]

    def __init__(self, workdir, traced_spans=None):
        self.workdir = Path(workdir)
        self.traced_spans = traced_spans  # directory for child span files
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cycle(self, seed, k):
        rng = np.random.default_rng((seed, k))
        handle_classes = [classes[k % 2] for verb, *classes in self.VERBS if len(classes[0]) == 4]
        handles = iter(class_handles(handle_classes, seed, k))
        ops = []
        for i, (verb, *classes) in enumerate(self.VERBS):
            cls = classes[k % 2]
            family = f"cli-{verb.replace(' ', '-')}"
            if verb.startswith("oracle"):
                q, d = cls
                F = fields.field(q)
                b = int(rng.integers(0, d + 1))
                modulus = split_modulus(F, d - b, b).digits_str()
                argv = verb.split() + ["--group", "sl2", "--q", str(q), "--modulus", modulus]
                if verb == "oracle closure":
                    corner = poly.Poly(F, [int(x) for x in rng.integers(0, q, d)]).digits_str()
                    weyl = f"0,{F.neg(1)},1,0"
                    argv += ["--matrix", weyl, "--matrix", "1,1,0,1", "--matrix", f"1,{corner},0,1"]
                ops.append(Op(family, {"argv": argv}))
                continue
            spec = self.workdir / f"spec-{k}-{i}.json"
            handle = subgroups.handle_to_json(next(handles))
            spec.write_text(json.dumps(handle), encoding="utf-8")
            ops.append(Op(family, {"argv": verb.split() + ["--spec", str(spec)]}))
        return ops

    def run(self, op):
        argv = op.args["argv"] + ["--json"]
        if self.traced_spans is None:
            cmd = [sys.executable, "-m", "drinfeld", *argv]
        else:
            spans = Path(self.traced_spans) / f"op-{op.index}.jsonl"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), str(op.index), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def answer_json(self, op, answer):
        code, out, _ = answer
        try:
            return {"exit": code, "stdout": json.loads(out)}
        except json.JSONDecodeError:
            return {"exit": code, "stdout": out}

    def check(self, op, answer):
        code, out, err = answer
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if op.args["argv"][:2] == ["genuine", "verdict"]:
            import jsonschema

            schema = json.loads((ROOT / "src/drinfeld/schemas/verdict.schema.json").read_text())
            try:
                jsonschema.validate(payload, schema)
            except jsonschema.ValidationError as exc:
                return f"verdict does not match its schema: {exc.message}"
        if payload != in_process_answer(op.args["argv"]):
            return "CLI answer differs from the in-process answer"
        return None


def in_process_answer(argv):
    """The payload a CLI verb should print, computed through the library."""
    verb = " ".join(argv[:2])
    opts = {}
    for key, value in zip(argv[2::2], argv[3::2]):
        opts.setdefault(key, []).append(value)
    config = DEFAULT_CONFIG
    if "--spec" in opts:
        with open(opts["--spec"][0], "r", encoding="utf-8") as fh:
            handle = subgroups.handle_from_json(json.load(fh))
        if verb == "subgroup congruence":
            return subgroups.report_to_json(subgroups.is_congruence(handle, config))
        if verb == "subgroup ql":
            return ql_to_json(subgroups.quasi_level(handle, config))
        if verb == "genuine verdict":
            return genuine.verdict_to_json(genuine.verdict(handle, config))
        if verb == "auto refute":
            return autos.refutation_to_json(autos.refute_genuineness(handle, config))
    F = fields.field(int(opts["--q"][0]))
    R = poly.residue_ring(poly.poly_from_text(F, opts["--modulus"][0]))
    G = ResidueMatrixGroup(R, "SL")
    payload = {"group": "sl2", "field": F.label, "modulus": R.modulus.digits_str()}
    if verb == "oracle enumerate":
        payload["order"] = int(G.elements().size)
        return payload
    gens = []
    for quad in opts["--matrix"]:
        entries = [poly.poly_from_text(F, s) for s in quad.split(",")]
        gens.append(int(mat_code(reduce_mat(mat_over_polys(F, entries), R))))
    payload["generators"] = sorted(set(gens))
    payload["order"] = int(closure(G, gens).size)
    return payload


def make(name, workdir, traced_spans=None):
    """The workload called ``name``; only ``cli-cold`` uses the directories."""
    if name == "cli-cold":
        return CliCold(workdir, traced_spans)
    return {w.name: w for w in (VerdictScan, RefuteSearch, QlTransport)}[name]()

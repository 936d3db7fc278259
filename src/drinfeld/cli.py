"""Command-line front end.

Builds subgroup handles, computes quasi-levels and congruence verdicts,
applies and searches automorphisms, exposes the brute-force oracles, and
runs the full reference-computation suite.

Every verb is a thin shell over library calls; no algebra lives here.
Output is deterministic for a fixed argument list, caps and seed.  Exit
codes: 0 success, 1 bad input or a domain error, 2 a size cap was hit.
"""

import argparse
import json
import sys

import numpy as np

from .amalgam import ReductionHom, hom_from_json, hom_to_json
from .autos import (
    apply_auto,
    auto_from_json,
    auto_to_json,
    refutation_to_json,
    refute_genuineness,
)
from .config import (
    DEFAULT_ENUM_CAP,
    DEFAULT_GROUP_CAP,
    DEFAULT_SEARCH_BUDGET,
    RunConfig,
)
from .errors import CapExceeded, DomainError
from .fields import field, field_from_label
from .fingroup import closure, derived_subgroup, first_outside
from .genuine import facts_lookup, low_index_scan, verdict, verdict_to_json
from .mat2 import mat_over_polys, reduce_mat
from .matgroups import ResidueMatrixGroup, mat_code
from .poly import MonicIdeal, poly_from_text, residue_ring, text_digits
from .subgroups import (
    from_quasilevel_abelian,
    handle_from_codes,
    handle_from_generators,
    handle_from_json,
    handle_to_json,
    is_congruence,
    principal_congruence_handle,
    quasi_level,
    ql_to_json,
    report_to_json,
    scalar_congruence_handle,
)
from .subspace import subspace
from .verify import format_suite_text, run_suite

GROUP_KINDS = {"sl2": "SL", "gl2": "GL"}


def _config(args):
    try:
        return RunConfig(
            group_cap=args.group_cap,
            enum_cap=args.enum_cap,
            search_budget=args.budget,
            seed=args.seed,
        )
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _kind(args):
    return GROUP_KINDS[args.group]


def _field(args):
    return field_from_label(str(args.q))


def _load_spec(path, what, build):
    """Build from a JSON spec file; every refusal is one DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"{what}: cannot read {path} ({exc.strerror or exc})") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what}: {path} is not valid JSON (line {exc.lineno})") from exc
    try:
        return build(data)
    except DomainError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what}: malformed field ({exc})") from exc


def _parse_codes(text, what):
    """Element codes from a --codes flag: comma-separated 64-bit integers."""
    try:
        return np.array(text.split(","), dtype=np.int64).tolist()
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{what}: bad --codes ({exc})") from exc


def _load_handle(path, config):
    def build(data):
        if not isinstance(data, dict):
            raise DomainError("subgroup-spec: top level must be a JSON object")
        for key in ("hom", "subgroup"):
            if key not in data:
                raise DomainError(f"subgroup-spec: missing key {key!r}")
        sub = data["subgroup"]
        if not isinstance(sub, dict):
            return handle_from_json(data)
        if "generators" not in sub:
            raise DomainError("subgroup-spec: subgroup object needs a 'generators' list")
        gens = [int(x) for x in sub["generators"]]
        return handle_from_generators(
            hom_from_json(data["hom"]), gens, config.group_cap, name=data.get("name", "")
        )

    return _load_spec(path, "subgroup-spec", build)


def _dump(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit(args, payload):
    if args.json:
        print(_dump(payload))
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}")


def _write_or_emit(args, payload):
    """Write a document to --out when given, else print it."""
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_dump(payload) + "\n")
        _emit(args, {"written": out})
    elif args.json:
        print(_dump(payload))
    else:
        _emit(args, payload)


# ---------------------------------------------------------------- subgroup


def _cmd_subgroup_new(args):
    config = _config(args)
    kind = _kind(args)
    F = _field(args)
    name = args.name or ""
    if args.family in ("principal", "scalar", "abelian") and not args.modulus:
        raise DomainError("subgroup new: this family needs --modulus")
    if args.family == "principal":
        m = poly_from_text(F, args.modulus)
        hom = ReductionHom(residue_ring(m), kind)
        ideal_gen = poly_from_text(F, args.ideal) if args.ideal else m
        handle = principal_congruence_handle(
            hom, MonicIdeal(ideal_gen), config, name=name
        )
    elif args.family == "scalar":
        m = poly_from_text(F, args.modulus)
        handle = scalar_congruence_handle(m, kind)
        if name:
            handle.name = name
    elif args.family == "abelian":
        m = poly_from_text(F, args.modulus)
        if not args.basis:
            raise DomainError("subgroup new: the abelian family needs --basis")
        dim = F.n * m.degree
        rows = [text_digits(row.strip(), F.p, dim) for row in args.basis.split(",")]
        W = subspace(field(F.p), dim, rows)
        handle = from_quasilevel_abelian(W, m, kind)
        if name:
            handle.name = name
    elif args.family == "generators":
        if not args.hom:
            raise DomainError("subgroup new: the generators family needs --hom")
        hom = _load_spec(args.hom, "hom-spec", hom_from_json)
        if not args.codes:
            raise DomainError("subgroup new: the generators family needs --codes")
        gens = _parse_codes(args.codes, "subgroup new")
        if args.closed:
            handle = handle_from_codes(hom, gens, name=name)
        else:
            handle = handle_from_generators(hom, gens, config.group_cap, name=name)
    else:  # pragma: no cover - argparse restricts the choices
        raise DomainError(f"subgroup new: unknown family {args.family!r}")
    _write_or_emit(args, handle_to_json(handle))
    return 0


def _cmd_subgroup_ql(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    ql = quasi_level(handle, config)
    payload = ql_to_json(ql)
    payload["prime_dim"] = ql.prime_dim
    payload["prime_codim"] = ql.prime_codim
    payload["is_ideal"] = ql.is_ideal()
    _emit(args, payload)
    return 0


def _cmd_subgroup_level(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    ql = quasi_level(handle, config)
    _emit(
        args,
        {
            "level": ql.level.gen.digits_str(),
            "level_pretty": ql.level.gen.pretty(),
            "level_is_zero": ql.level.is_zero(),
            "conductor": ql.conductor.gen.digits_str(),
        },
    )
    return 0


def _cmd_subgroup_index(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    _emit(
        args,
        {
            "index": handle.index_in_domain(config.group_cap),
            "target_subgroup_size": int(handle.subgroup.size),
        },
    )
    return 0


def _cmd_subgroup_congruence(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    _emit(args, report_to_json(is_congruence(handle, config)))
    return 0


def _cmd_subgroup_core(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    core = handle.core(cap=config.group_cap)
    doc = {
        "hom": hom_to_json(handle.hom),
        "subgroup": [int(x) for x in core],
        "name": f"{handle.name}#core" if handle.name else "core",
    }
    _write_or_emit(args, doc)
    return 0


# -------------------------------------------------------------------- auto


def _cmd_auto_validate(args):
    auto = _load_spec(args.auto, "auto-spec", auto_from_json)
    F = _field(args)
    kind = _kind(args)
    parts = auto if isinstance(auto, list) else [auto]
    try:
        for part in parts:
            part.validate(F, kind)
    except DomainError as exc:
        _emit(args, {"valid": False, "error": str(exc)})
        return 1
    serialized = auto_to_json(auto)
    types = [p["type"] for p in serialized] if isinstance(serialized, list) else serialized["type"]
    _emit(args, {"valid": True, "type": types})
    return 0


def _cmd_auto_apply(args):
    config = _config(args)
    auto = _load_spec(args.auto, "auto-spec", auto_from_json)
    handle = _load_handle(args.spec, config)
    moved = apply_auto(auto, handle, config)
    _write_or_emit(args, handle_to_json(moved))
    return 0


def _cmd_auto_refute(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    _emit(args, refutation_to_json(refute_genuineness(handle, config)))
    return 0


# ----------------------------------------------------------------- genuine


def _cmd_genuine_verdict(args):
    config = _config(args)
    handle = _load_handle(args.spec, config)
    _emit(args, verdict_to_json(verdict(handle, config)))
    return 0


def _scan_text(report):
    lines = [
        f"field {report['field']}  kind {report['kind']}  "
        f"max index {report['max_index']}  modulus bound {report['modulus_bound']}"
    ]
    header = f"{'index':>5}  {'family':<17} {'modulus':<9} {'congruence':<10} {'outcome':<11} reason"
    lines.append(header)
    for e in report["entries"]:
        idx = "-" if e["index"] is None else e["index"]
        cong = "-" if e["congruence"] is None else str(e["congruence"])
        lines.append(
            f"{idx:>5}  {e['family']:<17} {e['modulus']:<9} {cong:<10} "
            f"{e['outcome']:<11} {e['reason']}"
        )
    minima = report["minima"]
    lines.append(
        "minima ({}): noncongruence={} certified_genuine={} undecided={}".format(
            report["scope"],
            minima["noncongruence"],
            minima["certified_genuine"],
            minima["undecided"],
        )
    )
    return "\n".join(lines)


def _cmd_genuine_scan(args):
    config = _config(args)
    F = _field(args)
    bound = poly_from_text(F, args.bound)
    report = low_index_scan(args.q, _kind(args), args.max_index, bound, config)
    if args.json:
        print(_dump(report))
    else:
        print(_scan_text(report))
    return 0


# ------------------------------------------------------------------- facts


def _cmd_facts_get(args):
    kwargs = {}
    if args.q is not None:
        kwargs["q"] = args.q
    if args.group is not None:
        kwargs["kind"] = GROUP_KINDS[args.group]
    if args.genus is not None:
        kwargs["g"] = args.genus
    if args.punctures is not None:
        kwargs["delta"] = args.punctures
    value = facts_lookup(args.key, **kwargs)
    _emit(args, {"key": args.key, "params": kwargs, "value": value})
    return 0


# ------------------------------------------------------------------ oracle


def _oracle_group(args):
    F = _field(args)
    m = poly_from_text(F, args.modulus)
    return ResidueMatrixGroup(residue_ring(m), _kind(args))


def _cmd_oracle_enumerate(args):
    config = _config(args)
    G = _oracle_group(args)
    elems = G.elements(config.group_cap)
    _emit(
        args,
        {
            "group": args.group,
            "field": G.R.F.label,
            "modulus": G.R.modulus.digits_str(),
            "order": int(elems.size),
        },
    )
    return 0


def _cmd_oracle_derived(args):
    config = _config(args)
    G = _oracle_group(args)
    elems = G.elements(config.group_cap)
    derived = derived_subgroup(G, elems, cap=config.group_cap)
    _emit(
        args,
        {
            "group": args.group,
            "field": G.R.F.label,
            "modulus": G.R.modulus.digits_str(),
            "order": int(elems.size),
            "derived_order": int(derived.size),
            "index": int(elems.size) // int(derived.size),
        },
    )
    return 0


def _cmd_oracle_closure(args):
    config = _config(args)
    G = _oracle_group(args)
    R = G.R
    F = R.F
    gens = []
    if args.codes:
        gens.extend(_parse_codes(args.codes, "closure"))
    for quad in args.matrix or []:
        entries = [poly_from_text(F, s) for s in quad.split(",")]
        if len(entries) != 4:
            raise DomainError(f"closure: --matrix needs 4 entries, got {quad!r}")
        gens.append(int(mat_code(reduce_mat(mat_over_polys(F, entries), R))))
    if not gens:
        raise DomainError("closure: give generators via --codes and/or --matrix")
    bad = first_outside(G, gens)
    if bad is not None:
        raise DomainError(f"closure: code {bad} is outside the {args.group} group")
    arr = closure(G, gens, cap=config.group_cap)
    _emit(
        args,
        {
            "group": args.group,
            "field": F.label,
            "modulus": R.modulus.digits_str(),
            "generators": sorted(set(gens)),
            "order": int(arr.size),
        },
    )
    return 0


# ----------------------------------------------------------------- suite


def _cmd_verify_paper(args):
    config = _config(args)
    report = run_suite(config)
    if args.json:
        print(_dump(report))
    else:
        print(format_suite_text(report))
    return 0 if report["all_passed"] else 1


# ------------------------------------------------------------------ parser


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--group-cap",
        type=int,
        default=DEFAULT_GROUP_CAP,
        help="largest finite group order enumerated",
    )
    parser.add_argument(
        "--enum-cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="largest residue enumeration allowed",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SEARCH_BUDGET,
        help="candidate budget for automorphism searches",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized campaigns")


def _add_group_flags(parser, need_modulus=True):
    parser.add_argument(
        "--group", choices=sorted(GROUP_KINDS), default="sl2", help="ambient matrix group"
    )
    parser.add_argument("--q", type=int, required=True, help="field order (prime power, at most 16)")
    if need_modulus:
        parser.add_argument("--modulus", required=True, help='monic modulus, e.g. "t^2" or "001"')


class _Parser(argparse.ArgumentParser):
    """Refuses malformed flags with a DomainError, so they exit 1 as other
    bad input does; exit 2 stays reserved for a hit cap."""

    def error(self, message):
        raise DomainError(f"{message} (see {self.prog} --help)")


def build_parser():
    parser = _Parser(
        prog="drinfeld",
        description="Exact congruence/genuineness toolkit for SL2 and GL2 over F_q[t].",
    )
    top = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def leaf(group, name, fn, help_):
        sub = group.add_parser(name, help=help_)
        sub.set_defaults(fn=fn)
        _add_common(sub)
        return sub

    sub_group = top.add_parser("subgroup", help="build and inspect subgroup handles").add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )
    p = leaf(sub_group, "new", _cmd_subgroup_new, "construct a handle and write its spec")
    p.add_argument(
        "--family",
        required=True,
        choices=["principal", "scalar", "abelian", "generators"],
        help="construction recipe",
    )
    _add_group_flags(p, need_modulus=False)
    p.add_argument("--modulus", help="monic modulus polynomial")
    p.add_argument("--ideal", help="principal family: ideal generator (defaults to the modulus)")
    p.add_argument("--basis", help="abelian family: comma-separated digit rows over the prime field")
    p.add_argument("--hom", help="generators family: path to a hom spec JSON file")
    p.add_argument("--codes", help="generators family: comma-separated target element codes")
    p.add_argument(
        "--closed",
        action="store_true",
        help="generators family: codes already list the whole subgroup",
    )
    p.add_argument("--name", help="label stored in the spec file")
    p.add_argument("--out", help="write the spec file here instead of stdout")
    for name, fn, help_ in [
        ("ql", _cmd_subgroup_ql, "quasi-level: translation residues landing in the core"),
        ("level", _cmd_subgroup_level, "largest ideal inside the quasi-level"),
        ("index", _cmd_subgroup_index, "index of the preimage in its ambient group"),
        ("congruence", _cmd_subgroup_congruence, "decide whether the preimage is congruence"),
        ("core", _cmd_subgroup_core, "normal core of the handle as a new spec"),
    ]:
        p = leaf(sub_group, name, fn, help_)
        p.add_argument("--spec", required=True, help="subgroup spec JSON file")
        if name == "core":
            p.add_argument("--out", help="write the core spec to this file instead of stdout")

    sub_auto = top.add_parser("auto", help="validate, apply and search automorphisms").add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )
    p = leaf(sub_auto, "validate", _cmd_auto_validate, "check an automorphism spec")
    p.add_argument("--auto", required=True, help="automorphism spec JSON file")
    _add_group_flags(p, need_modulus=False)
    p = leaf(sub_auto, "apply", _cmd_auto_apply, "apply an automorphism to a handle")
    p.add_argument("--auto", required=True, help="automorphism spec JSON file")
    p.add_argument("--spec", required=True, help="subgroup spec JSON file")
    p.add_argument("--out", help="write the moved spec to this file instead of stdout")
    p = leaf(sub_auto, "refute", _cmd_auto_refute, "search for a genuineness refutation")
    p.add_argument("--spec", required=True, help="subgroup spec JSON file")

    sub_gen = top.add_parser("genuine", help="genuineness verdicts and scans").add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )
    p = leaf(sub_gen, "verdict", _cmd_genuine_verdict, "judge one handle")
    p.add_argument("--spec", required=True, help="subgroup spec JSON file")
    p = leaf(sub_gen, "scan", _cmd_genuine_scan, "judge every representable handle in range")
    _add_group_flags(p, need_modulus=False)
    p.add_argument("--max-index", type=int, default=4, help="largest index kept")
    p.add_argument("--bound", required=True, help="modulus bound polynomial")

    sub_facts = top.add_parser("facts", help="tabulated reference values").add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )
    p = leaf(sub_facts, "get", _cmd_facts_get, "look up one fact")
    p.add_argument("key", help="fact identifier, e.g. minimal-proper-index")
    p.add_argument("--q", type=int, help="field order")
    p.add_argument("--group", choices=sorted(GROUP_KINDS), help="ambient matrix group")
    p.add_argument("--genus", type=int, help="genus parameter")
    p.add_argument("--punctures", type=int, help="puncture count parameter")

    sub_oracle = top.add_parser(
        "oracle", help="independent brute-force checks"
    ).add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(sub_oracle, "enumerate", _cmd_oracle_enumerate, "count a residue matrix group")
    _add_group_flags(p)
    p = leaf(sub_oracle, "derived", _cmd_oracle_derived, "derived subgroup order and index")
    _add_group_flags(p)
    p = leaf(sub_oracle, "closure", _cmd_oracle_closure, "order of a generated subgroup")
    _add_group_flags(p)
    p.add_argument("--codes", help="comma-separated element codes")
    p.add_argument(
        "--matrix",
        action="append",
        help='generator as 4 comma-separated polynomials "a,b,c,d"; repeatable',
    )

    p = top.add_parser("verify-paper", help="run the full reference-computation suite")
    p.set_defaults(fn=_cmd_verify_paper)
    _add_common(p)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

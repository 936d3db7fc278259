"""End-to-end checks of the command-line surface.

Most tests drive main() in-process; determinism is checked at the process
level by comparing the bytes of two separate invocations.
"""

import json
import subprocess
import sys

import pytest

from drinfeld.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_principal_handle_round_trip(tmp_path, capsys):
    spec = tmp_path / "g.json"
    code, out, _ = run_cli(
        capsys,
        "subgroup", "new", "--family", "principal", "--q", "2",
        "--modulus", "t^2", "--name", "kernel-mod-t2", "--out", str(spec),
    )
    assert code == 0 and str(spec) in out
    doc = json.loads(spec.read_text())
    assert doc["hom"]["modulus"] == "001" and doc["name"] == "kernel-mod-t2"

    rep = run_json(capsys, "subgroup", "congruence", "--spec", str(spec))
    assert rep["congruence"] is True and rep["witness"] is None

    idx = run_json(capsys, "subgroup", "index", "--spec", str(spec))
    assert idx["index"] == 48

    lvl = run_json(capsys, "subgroup", "level", "--spec", str(spec))
    assert lvl["level"] == "001" and lvl["level_pretty"] == "t^2"

    ql = run_json(capsys, "subgroup", "ql", "--spec", str(spec))
    assert ql["conductor"] == "001" and ql["level"] == "001"
    assert ql["basis"] == [] and ql["prime_codim"] == 2


def test_noncongruence_refutation_chain(tmp_path, capsys):
    spec = tmp_path / "n.json"
    code, _, _ = run_cli(
        capsys,
        "subgroup", "new", "--family", "abelian", "--q", "2",
        "--modulus", "t^3", "--basis", "100,010", "--out", str(spec),
    )
    assert code == 0

    rep = run_json(capsys, "subgroup", "congruence", "--spec", str(spec))
    assert rep["congruence"] is False and rep["witness"] is not None

    v = run_json(capsys, "genuine", "verdict", "--spec", str(spec))
    assert v["outcome"] == "NotGenuine"
    assert v["reason"] == "normal-index-divisibility"

    ref = run_json(capsys, "auto", "refute", "--spec", str(spec))
    assert ref["status"] == "refuted"
    assert ref["report"]["congruence"] is True

    auto_path = tmp_path / "auto.json"
    auto_path.write_text(json.dumps(ref["auto"]))
    code, out, _ = run_cli(capsys, "auto", "validate", "--auto", str(auto_path), "--q", "2")
    assert code == 0 and "valid: True" in out

    moved = tmp_path / "moved.json"
    code, _, _ = run_cli(
        capsys,
        "auto", "apply", "--auto", str(auto_path), "--spec", str(spec),
        "--out", str(moved),
    )
    assert code == 0
    rep2 = run_json(capsys, "subgroup", "congruence", "--spec", str(moved))
    assert rep2["congruence"] is True


def test_core_of_scalar_handle(tmp_path, capsys):
    spec = tmp_path / "s.json"
    run_cli(
        capsys,
        "subgroup", "new", "--family", "scalar", "--q", "3", "--modulus", "t",
        "--out", str(spec),
    )
    idx = run_json(capsys, "subgroup", "index", "--spec", str(spec))
    assert idx["index"] == 12

    core_path = tmp_path / "core.json"
    code, _, _ = run_cli(
        capsys, "subgroup", "core", "--spec", str(spec), "--out", str(core_path)
    )
    assert code == 0
    core_doc = json.loads(core_path.read_text())
    assert len(core_doc["subgroup"]) == 2


def test_generator_variant_spec_is_closed(tmp_path, capsys):
    spec = tmp_path / "s.json"
    run_cli(
        capsys,
        "subgroup", "new", "--family", "scalar", "--q", "3", "--modulus", "t",
        "--out", str(spec),
    )
    doc = json.loads(spec.read_text())
    gen_doc = {
        "hom": doc["hom"],
        "subgroup": {"generators": [int(x) for x in doc["subgroup"]]},
        "name": "regenerated",
    }
    gen_spec = tmp_path / "gen.json"
    gen_spec.write_text(json.dumps(gen_doc))
    idx = run_json(capsys, "subgroup", "index", "--spec", str(gen_spec))
    assert idx["index"] == 12


def _principal_t2_doc(tmp_path, capsys):
    spec = tmp_path / "p2.json"
    code, _, _ = run_cli(
        capsys,
        "subgroup", "new", "--family", "principal", "--q", "2",
        "--modulus", "t^2", "--out", str(spec),
    )
    assert code == 0
    return json.loads(spec.read_text())


def _single_error(code, out, err):
    return code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


def test_generator_codes_outside_target_rejected(tmp_path, capsys):
    doc = _principal_t2_doc(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "subgroup": {"generators": [-5]}}))
    assert _single_error(*run_cli(capsys, "subgroup", "index", "--spec", str(bad)))
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(doc["hom"]))
    assert _single_error(*run_cli(
        capsys,
        "subgroup", "new", "--family", "generators", "--q", "2",
        "--hom", str(hom), "--codes=-5",
    ))


def test_listed_codes_outside_target_rejected(tmp_path, capsys):
    doc = _principal_t2_doc(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    for codes in ([99999999], [2**70]):
        bad.write_text(json.dumps({**doc, "subgroup": codes}))
        assert _single_error(*run_cli(capsys, "subgroup", "index", "--spec", str(bad)))


def test_tampered_tables_spec_rejected(tmp_path, capsys):
    # table homs are validated where they enter: on loading a spec
    spec = tmp_path / "ab.json"
    code, _, _ = run_cli(
        capsys,
        "subgroup", "new", "--family", "abelian", "--q", "2",
        "--modulus", "t^3", "--basis", "010,001", "--out", str(spec),
    )
    assert code == 0
    doc = json.loads(spec.read_text())
    table = doc["hom"]["const_table"]
    key = next(k for k, v in table.items() if v != 0)
    table[key] = 0
    spec.write_text(json.dumps(doc))
    assert _single_error(*run_cli(capsys, "subgroup", "index", "--spec", str(spec)))


@pytest.mark.parametrize(
    "hom_doc,codes",
    [
        (None, "a"),
        (None, str(2**70)),
        (None, "1,,2"),
        ({"type": "reduction"}, "0"),
        ([], "0"),
    ],
)
def test_bad_codes_and_hom_files_rejected(tmp_path, capsys, hom_doc, codes):
    doc = _principal_t2_doc(tmp_path, capsys)
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(doc["hom"] if hom_doc is None else hom_doc))
    assert _single_error(*run_cli(
        capsys,
        "subgroup", "new", "--family", "generators", "--q", "2",
        "--hom", str(hom), f"--codes={codes}",
    ))
    if hom_doc is None:
        assert _single_error(*run_cli(
            capsys,
            "oracle", "closure", "--q", "2", "--modulus", "t^2", f"--codes={codes}",
        ))


def test_spec_reload_obeys_group_cap(tmp_path, capsys):
    # SL2 over F_2[t]/t^6 has order 196608, above the default cap: the hom
    # read back from the spec must enumerate under the cap of the request
    spec = tmp_path / "p6.json"
    code, _, _ = run_cli(
        capsys,
        "subgroup", "new", "--family", "principal", "--q", "2",
        "--modulus", "t^6", "--group-cap", "300000", "--out", str(spec),
    )
    assert code == 0
    rep = run_json(
        capsys, "subgroup", "congruence", "--spec", str(spec), "--group-cap", "300000"
    )
    assert rep["congruence"] is True


def test_facts_verbs(capsys):
    got = run_json(capsys, "facts", "get", "minimal-proper-index", "--q", "4")
    assert got["value"] == 5
    got = run_json(
        capsys,
        "facts", "get", "rank-zero", "--q", "4", "--group", "sl2",
        "--genus", "0", "--punctures", "3",
    )
    assert got["value"] is True


@pytest.mark.parametrize(
    "argv,named",
    [
        (["coordinate-fixed-part", "--genus", "1", "--punctures", "0"], "--punctures"),
        (["coordinate-fixed-part", "--genus", "1", "--punctures", "-1"], "--punctures"),
        (["coordinate-fixed-part", "--genus", "-1", "--punctures", "1"], "--genus"),
        (["coordinate-fixed-part", "--genus", "1"], "--punctures"),
        (["rank-zero", "--q", "2"], "--genus"),
        (["rank-zero", "--group", "sl2", "--genus", "0", "--punctures", "3"], "--q"),
        (["psl2-order"], "--q"),
        (["minimal-proper-index"], "--q"),
        (["psl2-order", "--q", "0"], "--q"),
        (["psl2-order", "--q", "6"], "--q"),
        (["pgl2-order", "--q", "-4"], "--q"),
    ],
)
def test_bad_fact_parameters_rejected(capsys, argv, named):
    code, out, err = run_cli(capsys, "facts", "get", *argv)
    assert _single_error(code, out, err) and named in err


def test_oracle_verbs(capsys):
    got = run_json(
        capsys, "oracle", "enumerate", "--group", "sl2", "--q", "2", "--modulus", "t^2+t"
    )
    assert got["order"] == 36
    got = run_json(
        capsys, "oracle", "derived", "--group", "sl2", "--q", "2", "--modulus", "t"
    )
    assert (got["order"], got["derived_order"], got["index"]) == (6, 3, 2)
    got = run_json(
        capsys,
        "oracle", "closure", "--group", "sl2", "--q", "2", "--modulus", "t^2",
        "--matrix", "0,1,1,0", "--matrix", "1,1,0,1", "--matrix", "1,t,0,1",
    )
    assert got["order"] == 48
    got = run_json(
        capsys,
        "oracle", "closure", "--group", "sl2", "--q", "2", "--modulus", "t^2",
        "--matrix", "1,0,0,1",
    )
    assert got["order"] == 1
    # membership is arithmetic: no enumeration of the order-196608 group
    got = run_json(
        capsys,
        "oracle", "closure", "--group", "sl2", "--q", "2", "--modulus", "t^6",
        "--matrix", "1,1,0,1",
    )
    assert got["order"] == 2


def test_scan_json_report(capsys):
    report = run_json(
        capsys, "genuine", "scan", "--q", "2", "--bound", "t^2+t", "--max-index", "4"
    )
    assert report["field"] == "2^1" and report["modulus_bound"] == "011"
    assert report["entries"] and all("outcome" in e for e in report["entries"])
    assert set(report["minima"]) == {"noncongruence", "certified_genuine", "undecided"}


def test_invalid_auto_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "nonstandard", "field": "2^1", "images": ["01"]}))
    code, out, _ = run_cli(capsys, "auto", "validate", "--auto", str(bad), "--q", "2")
    assert code == 1 and "valid: False" in out


def test_missing_spec_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "subgroup", "ql", "--spec", "/no/such/file.json")
    assert code == 1 and "subgroup-spec" in err


def test_malformed_spec_named_rule(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subgroup": [0]}))
    code, _, err = run_cli(capsys, "subgroup", "ql", "--spec", str(bad))
    assert code == 1 and "missing key 'hom'" in err

    bad.write_text(json.dumps({"hom": [], "subgroup": [0]}))
    assert _single_error(*run_cli(capsys, "subgroup", "ql", "--spec", str(bad)))

    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "subgroup", "ql", "--spec", str(bad))
    assert code == 1 and "not valid JSON" in err

    # a quotient basis digit at or above the field order
    run_cli(
        capsys,
        "subgroup", "new", "--family", "abelian", "--q", "2",
        "--modulus", "t^3", "--basis", "100,010", "--out", str(bad),
    )
    doc = json.loads(bad.read_text())
    doc["hom"]["target"]["basis"][0] = "900"
    bad.write_text(json.dumps(doc))
    assert _single_error(*run_cli(capsys, "subgroup", "index", "--spec", str(bad)))


def test_cap_exhaustion_exits_two(tmp_path, capsys):
    spec = tmp_path / "p.json"
    run_cli(
        capsys,
        "subgroup", "new", "--family", "principal", "--q", "3", "--modulus", "t^3",
        "--out", str(spec),
    )
    code, _, err = run_cli(
        capsys, "subgroup", "ql", "--spec", str(spec), "--enum-cap", "4"
    )
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--group-cap", "2000000"),
        ("--enum-cap", "0"),
        ("--seed", "-1"),
        ("--budget", "-1"),
        ("--group-cap", "x"),
    ],
)
def test_bad_cap_budget_and_seed_flags_rejected(capsys, flag, value):
    assert _single_error(*run_cli(
        capsys, "oracle", "enumerate", "--q", "2", "--modulus", "t", flag, value,
    ))


def test_fresh_and_warm_process_agree(capsys):
    argv = ["genuine", "scan", "--q", "2", "--bound", "t^3", "--max-index", "6", "--json"]
    fresh = subprocess.run(
        [sys.executable, "-m", "drinfeld", *argv], capture_output=True, check=True
    )
    # warm this process with a large enumeration under a raised cap first
    code, _, _ = run_cli(
        capsys,
        "oracle", "enumerate", "--q", "2", "--modulus", "t^6", "--group-cap", "300000",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.strip()
    assert out.encode() == fresh.stdout


def test_process_level_determinism():
    cmd = [
        sys.executable, "-m", "drinfeld",
        "genuine", "scan", "--q", "2", "--bound", "t^3", "--max-index", "4", "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()

import cmath
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grouplie.cli import main, parse_args
from grouplie.errors import UsageError
from grouplie import verify
from grouplie.chartable import character_table
from grouplie.groups import catalog, find_character, parse_group_spec
from grouplie.indicators import indicator_report
from grouplie.liealg import center_basis, lie_basis, make_context
from grouplie.verify import verify_theorem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_analyze():
    cfg = parse_args(["analyze", "--group", "symmetric:3", "--alpha", "sign"])
    assert cfg.command == "analyze"
    assert cfg.group == "symmetric:3" and cfg.alpha == "sign"
    assert cfg.tau == "id" and cfg.fmt == "text"


def test_parse_args_verify():
    cfg = parse_args(["verify", "--max-order", "24", "--format", "json"])
    assert cfg.command == "verify" and cfg.max_order == 24 and cfg.fmt == "json"


def test_parse_args_bessel_z():
    cfg = parse_args(["bessel", "--n", "6", "--z", "0.7,0.3"])
    assert cfg.z == complex(0.7, 0.3)
    assert parse_args(["bessel", "--n", "6", "--z", "5"]).z == complex(5, 0)
    for bad in ("zzz", "1,", "1,2,3"):
        with pytest.raises(UsageError, match="--z"):
            parse_args(["bessel", "--n", "6", "--z", bad])


def test_parse_args_bessel_omega_k_must_fit_a_float():
    assert parse_args(["bessel", "--n", "6", "--omega-k", str(10 ** 300)]).omega_k == 10 ** 300
    for bad in (10 ** 400, -10 ** 400):
        with pytest.raises(UsageError, match="--omega-k"):
            parse_args(["bessel", "--n", "6", "--omega-k", str(bad)])


def test_parse_args_bessel_omega_must_be_finite():
    # k is taken as given, not reduced mod n: 10^308 is a float, but
    # 2 pi i k / n is not finite, and neither is omega
    ns = parse_args(["bessel", "--n", "6", "--omega-k", "7"])
    assert ns.omega == cmath.exp(2j * cmath.pi * 7 / 6)
    for bad in (10 ** 308, -10 ** 308):
        assert float(bad)
        with pytest.raises(UsageError, match=r"--omega-k is too large: exp\(2 pi i k / 6\) is not finite"):
            parse_args(["bessel", "--n", "6", "--omega-k", str(bad)])


def test_analyze_s3_sign_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "symmetric:3",
                           "--alpha", "sign")
    assert code == 0
    assert "gl(1) ⊕ sp(2)" in out
    assert "dim 4" in out and "center 1" in out


def test_analyze_q8_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "quaternion8")
    assert code == 0
    assert "so(1)^4 ⊕ sp(2)" in out and "dim 3" in out


def test_analyze_unknown_alpha(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "symmetric:3",
                           "--alpha", "nosuch")
    assert code == 1
    assert "available" in err and "sign" in err


def test_analyze_unknown_group(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "gibberish:9")
    assert code == 1


def test_analyze_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "symmetric:3",
                           "--alpha", "sign", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    s3 = catalog("symmetric", 3)
    sign = find_character(s3, "sign")
    report = indicator_report(character_table(s3), sign)
    ctx = make_context(s3, sign)
    structure = verify_theorem(lie_basis(ctx), report, center_basis(ctx)).to_json_dict()
    assert doc["structure"] == structure
    assert doc["indicators"]["dim_M"] == 4


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert doc["contexts"] >= 10
    keys = [(r["group"], r["alpha"], r["tau"]) for r in doc["reports"]]
    assert keys == sorted(keys)


# SHA-256 of the stdout of `verify --format json` over the full default
# catalog (orders 1-120): every rank, dimension, verdict and label of 409
# theorem contexts, 328 Clifford and 24 Kawanaka checks.  A change to this
# output must be deliberate.
FULL_CATALOG_VERIFY_SHA256 = "6f04aacec62237351ca6ca67a0c6d1989408e5248ee3bc98e02ec160dd800911"


def test_full_catalog_verify_json_is_pinned(capsys):
    code, out, err = run_cli(capsys, "verify", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert (doc["contexts"], len(doc["clifford"]), len(doc["kawanaka"])) == (409, 328, 24)
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_CATALOG_VERIFY_SHA256


def test_verify_single_group_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "quaternion8")
    assert code == 0
    assert "all pass" in out


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--max-order", "6", "--format", "json", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GROUPLIE_SEED", "123")
    cfg = parse_args(["verify", "--max-order", "4"])
    assert cfg.seed == 123
    cfg = parse_args(["verify", "--max-order", "4", "--seed", "5"])
    assert cfg.seed == 5


def test_bad_seed_env_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("GROUPLIE_SEED", "abc")
    with pytest.raises(UsageError):
        parse_args(["verify"])


def test_table_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "symmetric:3")
    assert code == 0
    assert "degrees" not in out and "chi_2 (deg 2)" in out

    code, out, _ = run_cli(capsys, "table", "--group", "symmetric:3",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["degrees"] == [1, 1, 2]
    assert doc["order"] == 6
    # exact values round-trip through the coefficient lists
    from grouplie.cyclo import CycloScalar

    v = CycloScalar.from_json(doc["exponent"], doc["values"][2][0])
    assert v == 2


def test_table_json_is_written_as_json_dumps(tmp_path, capsys):
    # written as it is encoded, in batches of chunks, to stdout and to
    # --out: the bytes of json.dumps with sort_keys and indent=2; cyclic:60
    # encodes to more chunks than one batch holds
    for spec in ("dihedral:6", "cyclic:60"):
        table = character_table(parse_group_spec(spec))
        expected = json.dumps(table.to_json_dict(), sort_keys=True, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "table", "--group", spec, "--format", "json")
        assert code == 0 and out == expected
        target = tmp_path / "table.json"
        code, out, _ = run_cli(capsys, "table", "--group", spec, "--format", "json",
                               "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == expected


def test_table_explicit_prime(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "cyclic:4",
                           "--format", "json", "--prime", "17")
    assert code == 0
    assert json.loads(out)["prime"] == 17


def test_bessel_command(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--n", "6", "--omega-k", "1",
                           "--z", "0.7,0.3")
    assert code == 0
    assert "deviation" in out

    code, out, _ = run_cli(capsys, "bessel", "--n", "4", "--omega-k", "0",
                           "--z", "1,0", "--format", "json")
    doc = json.loads(out)
    assert doc["within_tol"] is True
    assert doc["deviation"] < 1e-9


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog-list")
    assert code == 0
    assert "Q8" in out and "S5" in out and "Z/7:Z/3" in out

    code, out, _ = run_cli(capsys, "catalog-list", "--max-order", "8",
                           "--format", "json")
    doc = json.loads(out)
    assert all(entry["order"] <= 8 for entry in doc)

    # 0 is a bound, as in verify, not "no limit"
    code, out, _ = run_cli(capsys, "catalog-list", "--max-order", "0", "--format", "json")
    assert code == 0 and json.loads(out) == []


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--group", "cyclic:3",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["structure"]["group"] == "Z/3"


def test_exit_code_on_verification_failure(capsys, monkeypatch):
    import grouplie.cli as cli_mod

    class FakeResult:
        contexts = 1
        all_ok = False
        reports = []
        clifford = []
        kawanaka = []

    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: FakeResult())
    code, out, _ = run_cli(capsys, "verify", "--max-order", "4")
    assert code == 2


def test_group_json_input(tmp_path, capsys):
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"name": "Z4file", "table": table}))
    code, out, _ = run_cli(capsys, "analyze", "--group", str(path))
    assert code == 0
    assert "Z4file" in out


def test_tau_from_file(tmp_path, capsys):
    # inversion on Z/5 supplied extensionally
    path = tmp_path / "tau.json"
    path.write_text(json.dumps([0, 4, 3, 2, 1]))
    code, out, _ = run_cli(capsys, "analyze", "--group", "cyclic:5",
                           "--tau", str(path))
    assert code == 0
    assert "dim 0" in out  # tau(g)^-1 = g, so every spanning vector vanishes
    assert "L,tau(Z/5)" in out  # a tau file is labelled by its stem

    code, out, _ = run_cli(capsys, "analyze", "--group", "cyclic:5",
                           "--tau", f"@{path}", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["indicators"]["tau"] == doc["structure"]["tau"] == "tau"

    code, out, _ = run_cli(capsys, "verify", "--group", "cyclic:5",
                           "--tau", str(path), "--format", "json")
    assert code == 0
    assert {r["tau"] for r in json.loads(out)["reports"]} == {"tau"}


PINNED = json.loads((Path(__file__).parent / "data" / "analyze_pinned.json").read_text())


@pytest.mark.parametrize("key", sorted(PINNED))
def test_analyze_json_pinned(capsys, key):
    group, alpha, tau = key.split()
    code, out, _ = run_cli(capsys, "analyze", "--group", group, "--alpha", alpha,
                           "--tau", tau, "--format", "json")
    assert code == 0
    assert out == json.dumps(PINNED[key], sort_keys=True, indent=2) + "\n"


def test_analyze_builds_one_indicator_report(capsys, monkeypatch):
    import grouplie

    # every report comes from the batch; analyze hands it its one context
    original = grouplie.indicators.indicator_reports
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that binds the name, so a call through any of them counts
    for module in (grouplie.indicators, grouplie.verify, grouplie.cli):
        if getattr(module, "indicator_reports", None) is original:
            monkeypatch.setattr(module, "indicator_reports", counted)
    for fmt in ("text", "json"):
        calls.clear()
        code, _, _ = run_cli(capsys, "analyze", "--group", "symmetric:3",
                             "--alpha", "sign", "--format", fmt)
        assert code == 0 and len(calls) == 1 and len(calls[0][1]) == 1


def test_analyze_reports_a_failed_check(capsys, monkeypatch):
    # the skew vectors of L in place of the +1 basis, as in
    # test_orthogonality_check_can_fail
    monkeypatch.setattr(verify, "plus_fixed_basis", lambda ctx: lie_basis(ctx).rows)
    code, out, _ = run_cli(capsys, "analyze", "--group", "symmetric:3")
    assert code == 2
    assert "checks: FAILED orthogonality_ok" in out


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("alpha, tau", [("lin1", "inv"), ("nosuch", "all")])
def test_verify_without_contexts_is_a_usage_error(capsys, alpha, tau):
    code, out, err = run_cli(capsys, "verify", "--group", "cyclic:4",
                             "--alpha", alpha, "--tau", tau)
    assert code == 1 and out == ""
    assert _one_error_line(err) and "no theorem context selected" in err


def test_verify_tau_inv_selects_the_abelian_groups(capsys):
    # inversion is an automorphism exactly on the abelian groups, so the
    # full catalog under --tau inv verifies their contexts and runs every
    # Clifford and Kawanaka check, and a nonabelian group alone selects none
    code, out, err = run_cli(capsys, "verify", "--tau", "inv", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and err == "" and payload["all_ok"]
    assert (payload["contexts"], len(payload["clifford"]), len(payload["kawanaka"])) == (
        48, 328, 24)
    # every report carries the tau that was asked for, also where inversion is
    # the identity map (Z/2 and Z/2 x Z/2 x Z/2, the exponent-2 groups)
    assert {r["tau"] for r in payload["reports"]} == {"inv"}
    assert sum(r["group"] in ("Z/2", "Z/2xZ/2xZ/2") for r in payload["reports"]) == 10
    code, out, err = run_cli(capsys, "verify", "--group", "symmetric:3", "--tau", "inv")
    assert code == 1 and out == ""
    assert _one_error_line(err) and "no theorem context selected" in err
    assert "tau=inv an abelian group" in err


def test_analyze_incompatible_pair(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "cyclic:4",
                             "--alpha", "lin1", "--tau", "inv")
    assert code == 1 and out == ""
    assert _one_error_line(err)
    assert "alpha(lin1) o tau(inv) != alpha" in err


def test_group_json_holding_a_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    code, _, err = run_cli(capsys, "analyze", "--group", str(path))
    assert code == 1
    assert _one_error_line(err) and "must be an object" in err


@pytest.mark.parametrize("name", [[1], 7], ids=["list", "number"])
def test_group_name_must_be_a_string(tmp_path, capsys, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"name": name, "table": [[0, 1], [1, 0]]}))
    code, out, err = run_cli(capsys, "verify", "--group", str(path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and "'name' must be a string" in err


@pytest.mark.parametrize("which", ["group", "tau"])
def test_invalid_json_file(tmp_path, capsys, which):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    if which == "group":
        argv = ("analyze", "--group", str(path))
    else:
        argv = ("analyze", "--group", "cyclic:5", "--tau", str(path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert _one_error_line(err) and "invalid JSON" in err


def test_bessel_huge_z_has_no_usable_bound(capsys):
    code, out, err = run_cli(capsys, "bessel", "--n", "4", "--z", "100,0")
    assert code == 1 and out == ""
    assert _one_error_line(err) and "tail bound inf" in err
    assert "raise the truncation" not in err


@pytest.mark.parametrize("which, content", [
    ("group", {"table": [[0, 1], [1, "a"]]}),
    ("group", {"table": [[0, 1], [1, 0.0]]}),
    ("group", {"table": 5}),
    ("group", {"generators": [[1, 0, "x"]]}),
    ("group", {"table": [[0, 1], [1, False]]}),  # a JSON boolean is not an index
    ("tau", ["a", 0]),
    ("tau", 5),
    ("tau", [1.0, 0.0]),
], ids=["table-string", "table-float", "table-number", "generator-string",
        "table-boolean", "tau-string", "tau-number", "tau-floats"])
def test_bad_index_data_is_a_usage_error(tmp_path, capsys, which, content):
    path = tmp_path / f"{which}.json"
    path.write_text(json.dumps(content))
    if which == "group":
        argv = ("analyze", "--group", str(path))
    else:
        argv = ("analyze", "--group", "cyclic:2", "--tau", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert _one_error_line(err) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--n", "0"),
    ("--n", "1025"),  # above groups.ORDER_CAP: the oracle's dense n x n matrix
    ("--n", "3", "--z", "nan,0"),
    ("--n", "3", "--z", "1,nan"),
    ("--n", "3", "--z", "inf,0"),
    ("--n", "3", "--z", "1e308,0"),
    ("--n", "3", "--tol", "nan"),
    ("--n", "3", "--tol", "inf"),
    ("--n", "3", "--tol", "0"),
    ("--n", "3", "--z", "100000,0"),  # refused before any Bessel series is summed
    ("--n", "3", "--z", "1,2,3"),
    ("--n", "3", "--omega-k", "1" + "0" * 400),
    ("--n", "3", "--omega-k", "1" + "0" * 308),  # a float, but omega is nan
    ("--n", "3", "--omega-k", "-1" + "0" * 308),
], ids=["n-0", "n-1025", "z-nan-re", "z-nan-im", "z-inf", "z-1e308", "tol-nan", "tol-inf",
        "tol-0", "z-1e5", "z-three-parts", "omega-k-401-digits", "omega-k-1e308",
        "omega-k-minus-1e308"])
def test_bessel_bad_input_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bessel", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert _one_error_line(err) and "Traceback" not in err


TABLE_PINS = {
    "cyclic:12": "table_cyclic_12.json",
    "dihedral:6": "table_dihedral_6.json",
    "symmetric:4": "table_symmetric_4.json",
    "product:quaternion8,cyclic:6": "table_product_quaternion8_cyclic_6.json",
    "frobenius21": "table_frobenius21.json",
}


@pytest.mark.parametrize("spec", sorted(TABLE_PINS))
def test_table_json_pinned(capsys, spec):
    # recorded from the scalar (CycloScalar) table and certification path
    code, out, _ = run_cli(capsys, "table", "--group", spec, "--format", "json")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / TABLE_PINS[spec]).read_text()


# SHA-256 of the `table` text output for the groups of TABLE_PINS: the exact
# values and their 6-digit complex approximations, one line each per irrep
TABLE_TEXT_DIGESTS = {
    "cyclic:12": "5d23ffa13089a32880bc0116c3fee4b578d84b45c8030aee3acc5e00f32ebeb3",
    "dihedral:6": "c2e6fc7d5d9b1603b74e01c4f277486b2a338cb0cc627b936d7ee19ac9a147d9",
    "symmetric:4": "133133058eeaeb61e907094b0e597cad59e03b16e34a94e34816f3842e001d7c",
    "product:quaternion8,cyclic:6":
        "14e0d895239f653855620bb51347306d959b1a0a766fdaadadad593eb61399ed",
    "frobenius21": "e7d420de7c268ad8beeef4d5c29cf5469a88a4c47fcdba2c30ab0eda1e46793f",
}


@pytest.mark.parametrize("spec", sorted(TABLE_TEXT_DIGESTS))
def test_table_text_pinned(capsys, spec):
    code, out, err = run_cli(capsys, "table", "--group", spec)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_TEXT_DIGESTS[spec]


# SHA-256 of `table --format json` for two tables whose eigenspace split
# takes several rounds with repeated eigenvalues (60 classes each), and for
# three beyond the catalog with 67 to 128 classes (cyclic:96, dihedral:128,
# product:cyclic:8,cyclic:16); the JSON runs to megabytes, so only its
# digest is kept.  The digests of dihedral:256 (131 classes, 58 MB of JSON,
# recorded at seeds 0 and 5) and of product:cyclic:16,cyclic:32 (512
# classes, all linear, so no split round and no class constants) are in
# table_scale_sha256.json, which CI checks with scripts/verify_pins.py
TABLE_DIGESTS = json.loads((Path(__file__).parent / "data" / "table_sha256.json").read_text())


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_large_table_json_pinned(capsys, spec):
    code, out, err = run_cli(capsys, "table", "--group", spec, "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[spec]


# SHA-256 of `verify --format json` for six groups beyond the catalog
# (orders 128-1024, 67-250 classes), recorded at seeds 0 and 5; tier-1
# checks the two that take about a second, and CI runs scripts/verify_pins.py
# on all six: cyclic:128, dihedral:256 and quaternion8^3 (125 classes, the
# center path on a nonabelian group) take several seconds each, and
# quaternion8^3 x Z/2 (order 1024, 250 classes) about half a minute
VERIFY_DIGESTS = json.loads((Path(__file__).parent / "data" / "verify_sha256.json").read_text())


@pytest.mark.parametrize("spec", ["dihedral:128", "product:cyclic:8,cyclic:16"])
def test_verify_json_at_scale_pinned(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--group", spec, "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[spec]


def test_verify_pins_refuses_an_unpinned_group_before_any_run():
    # cyclic:128 is pinned and takes seconds; the unpinned cyclic:3 stops
    # the script before it runs anything
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(root / "scripts" / "verify_pins.py"),
                          "cyclic:128", "cyclic:3"], capture_output=True, text=True, env=env)
    assert out.returncode == 1 and out.stdout == ""
    assert _one_error_line(out.stderr) and "no pin for cyclic:3;" in out.stderr
    table_pins = json.loads((root / "tests" / "data" / "table_scale_sha256.json").read_text())
    assert all(spec in out.stderr for spec in [*VERIFY_DIGESTS, *table_pins])


def test_commands_leave_numpy_ma_unloaded():
    # numpy.ma costs about a megabyte of resident memory, and numpy loads it
    # for np.unique on a flat array; a fresh process that runs verify,
    # analyze and both table formats never imports it
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    script = """
import contextlib, io, sys
from grouplie.cli import main
for argv in (["verify", "--max-order", "12"], ["analyze", "--group", "symmetric:3"],
             ["table", "--group", "dihedral:6"],
             ["table", "--group", "dihedral:6", "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")


def test_table_prime_beyond_the_root_search(capsys):
    # a valid prime p = 1 (mod 4) that the eigenvalue search, which scans
    # every residue, does not accept: one error line and exit 1, at once
    code, out, err = run_cli(capsys, "table", "--group", "cyclic:4", "--prime", "1000000009")
    assert code == 1 and out == ""
    assert _one_error_line(err) and "1000000009" in err
    # the largest valid prime below the bound still works
    code, out, _ = run_cli(capsys, "table", "--group", "cyclic:4",
                           "--format", "json", "--prime", "999961")
    assert code == 0 and json.loads(out)["prime"] == 999961


@pytest.mark.parametrize("prime", ["-7", "9", "25"])
def test_table_prime_that_is_not_prime(capsys, prime):
    # 1 (mod 4) and above 2*sqrt(4), but not a prime: one error line, exit 1
    code, out, err = run_cli(capsys, "table", "--group", "cyclic:4", "--prime", prime)
    assert code == 1 and out == ""
    assert _one_error_line(err) and f"{prime} is not a prime" in err

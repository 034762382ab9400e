from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldspec import algebra, cli, courant, spectrum
from foldspec.algebra import AlgebraicValue
from foldspec.cli import main
from foldspec.domains import DIRICHLET, NEUMANN, box, triangle
from foldspec.qlattice import LatticeRegion


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def refusal(capsys, argv: list[str]) -> str:
    """The one stderr line of a refused invocation: exit status 1, one line
    that starts with "error:", and nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1, argv
    assert captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def test_spectrum_json(capsys):
    code, out = run_cli(
        capsys,
        ["spectrum", "--domain", "triangle", "--cutoff", "11", "--points"],
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["value"] for r in rows] == ["0", "1", "2", "4", "5", "8", "9", "10"]
    assert rows[5] == {
        "position": 6,
        "value": "8",
        "float": 8.0,
        "multiplicity": 1,
        "parity": "even",
        "odd_core": "1",
        "k": 3,
        "members": [[2, 2]],
    }


def test_spectrum_box3_is_simple(capsys):
    code, out = run_cli(
        capsys,
        ["spectrum", "--domain", "box", "--dim", "3", "--cutoff", "10"],
    )
    rows = json.loads(out)
    assert code == 0 and rows
    assert all(r["multiplicity"] == 1 for r in rows)


def test_spectrum_csv(capsys):
    code, out = run_cli(
        capsys,
        ["spectrum", "--domain", "box", "--dim", "2", "--cutoff", "7", "--format", "csv"],
    )
    lines = out.strip().splitlines()
    assert lines[0] == "position,value,float,multiplicity,parity,odd_core,k"
    assert len(lines) == 7


def test_verdicts_triangle_table(capsys):
    code, out = run_cli(
        capsys, ["verdicts", "--domain", "triangle", "--cutoff", "100"]
    )
    assert code == 0
    sharp_rows = [l for l in out.splitlines() if " true" in l]
    positions = [int(l.split()[0]) for l in sharp_rows]
    assert positions == [1, 2, 3, 4, 6]


def test_verdicts_explain(capsys):
    code, out = run_cli(
        capsys,
        ["verdicts", "--domain", "triangle", "--cutoff", "20", "--explain", "7",
         "--format", "json"],
    )
    v = json.loads(out)
    assert v["value"] == "9" and v["reason"] == "odd_boundary"
    assert v["witness"]["boundary_even_points"] == [[2, 0], [2, 2]]


def test_verdicts_deterministic(capsys):
    argv = ["verdicts", "--domain", "box", "--dim", "2", "--cutoff", "50",
            "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_nodal_formula_and_svg(tmp_path: Path, capsys):
    svg = tmp_path / "nodal.svg"
    code, out = run_cli(
        capsys,
        ["nodal", "--domain", "triangle", "--qn", "3,3", "--svg", str(svg)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == 10 and payload["method"] == "formula"
    text = svg.read_text()
    assert text.startswith("<?xml") and "<svg" in text and "rect" in text


def test_nodal_grid_fallback(capsys):
    code, out = run_cli(capsys, ["nodal", "--domain", "triangle", "--qn", "3,1"])
    payload = json.loads(out)
    assert code == 0 and payload["method"] == "grid" and payload["stable"]


def test_frame_json_and_svg(tmp_path: Path, capsys):
    svg = tmp_path / "frame.svg"
    code, out = run_cli(
        capsys,
        ["frame", "--domain", "triangle", "--k", "2", "--svg", str(svg), "--json"],
    )
    payload = json.loads(out)
    assert code == 0 and payload["facet_count"] == 4
    assert "<svg" in svg.read_text()
    code, out = run_cli(capsys, ["frame", "--domain", "box", "--dim", "2", "--k", "3"])
    payload = json.loads(out)
    assert payload["facet_count"] == 2
    assert {f["axis"] for f in payload["facets"]} == {1}


def test_triangle_frame_bytes_are_pinned(capsys):
    # sha256 recorded before the triangle frame moved to integer arrays
    code, out = run_cli(capsys, ["frame", "--domain", "triangle", "--k", "10", "--json"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "057fbe8d2057a0caaba98f697ab4009edb968176a4c435323d1f82aa05db70ca"
    )


def test_eval_point(capsys):
    code, out = run_cli(
        capsys,
        ["eval", "--domain", "triangle", "--qn", "2,1", "--at", "pi/2,pi/2"],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["eigenvalue"] == "5"
    assert abs(payload["value"]) < 1e-12


def test_checksym(capsys):
    code, out = run_cli(
        capsys,
        ["checksym", "--domain", "triangle", "--qn", "2,1"],
    )
    payload = json.loads(out)
    assert payload["symmetry"] == "odd" and payload["eigenvalue_parity"] == "odd"


def test_checkframe(capsys):
    code, out = run_cli(
        capsys,
        ["checkframe", "--domain", "triangle", "--qn", "2,2"],
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["k"] == 3 and payload["vanishes"] and payload["failing_facet"] is None


def test_deficiency(capsys):
    code, out = run_cli(
        capsys, ["deficiency", "--domain", "triangle", "--lambda", "50"]
    )
    payload = json.loads(out)
    assert payload["core"] == "25" and payload["k"] == 1
    assert payload["bound"] >= 1


def test_dirichlet_check(capsys):
    code, out = run_cli(capsys, ["dirichlet-check", "--dim", "2", "--lambda", "6"])
    payload = json.loads(out)
    assert payload["lhs"] == payload["rhs"] == 0 and payload["holds"]


def test_selftest_single_criterion(capsys):
    code, out = run_cli(capsys, ["selftest", "--only", "9"])
    assert code == 0
    assert "[PASS] criterion 9" in out


def test_selftest_unknown_id_names_the_valid_ids(capsys):
    # refused before any criterion runs, so stdout stays empty
    for only in (["9", "99"], ["0"]):
        err = refusal(capsys, ["selftest", "--only", *only])
        assert err == f"error: unknown criterion id {only[-1]}; valid ids: 1, 2, 3, 4, 5, 6, 7, 8, 9"


def test_selftest_only_needs_an_id(capsys):
    # an empty --only is an argparse error, not a run of every criterion
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--only"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert "--only: expected at least one argument" in captured.err


def test_output_file(tmp_path: Path, capsys):
    out_path = tmp_path / "spec.json"
    code, _ = run_cli(
        capsys,
        ["spectrum", "--domain", "triangle", "--cutoff", "5", "-o", str(out_path)],
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert [r["value"] for r in rows] == ["0", "1", "2", "4"]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--domain", "pyramid", "--cutoff", "5"])
    assert exc.value.code == 2


def test_bad_eigenvalue_exits_cleanly(capsys):
    err = refusal(capsys, ["deficiency", "--domain", "box", "--lambda", "1,x"])
    assert err == "error: invalid eigenvalue '1,x'; expected like 12 or 1,0"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["deficiency", "--domain", "triangle", "--lambda", "2.5"],
         "invalid eigenvalue '2.5'; expected like 12 or 1,0"),
        (["spectrum", "--domain", "triangle", "--cutoff", "nan"],
         "invalid cutoff 'nan': Invalid literal for Fraction: 'nan'"),
        (["nodal", "--domain", "triangle", "--qn", "2;1"],
         "invalid quantum number '2;1'; expected like 2,1"),
    ],
    ids=["fractional-lambda", "nan-cutoff", "qn"],
)
def test_bad_arguments_are_refused_on_one_error_line(capsys, argv, message):
    assert refusal(capsys, argv) == f"error: {message}"


def test_point_with_zero_denominator_exits_cleanly(capsys):
    err = refusal(capsys, ["eval", "--domain", "triangle", "--qn", "2,1", "--at", "pi/0,0"])
    assert err.startswith("error: invalid point 'pi/0,0'")


@pytest.mark.parametrize("command", ["nodal", "checksym", "checkframe"])
def test_a_value_past_the_int_to_str_limit_is_refused(capsys, command):
    # (10^3000 - 1)^2 + 1 has 6000 digits, over Python's default of 4300
    nines = "9" * 3000
    err = refusal(capsys, [command, "--domain", "triangle", "--qn", f"{nines},1"])
    limit = sys.get_int_max_str_digits()
    assert err == f"error: a coefficient passes Python's {limit}-digit int-to-str limit"


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi), ("pi/2", math.pi / 2), ("3pi/4", 3 * math.pi / 4),
        ("0.5pi", 0.5 * math.pi), (" 1.25 ", 1.25), ("-2e-1", -0.2),
    ],
)
def test_documented_coordinates_parse(text, value):
    assert cli._parse_coordinate(text) == value


@pytest.mark.parametrize("at", ["pipi,0", "pi2,0", "pi/pi,0", "1/2,0", "2pipi/3,0", "pi/,0", "x,0"])
def test_malformed_coordinates_exit_cleanly(capsys, at):
    err = refusal(capsys, ["eval", "--domain", "triangle", "--qn", "1,0", "--at", at])
    assert err == f"error: invalid point '{at}'; expected like 1.2,0.5 or pi/2,0"


@pytest.mark.parametrize(
    "argv,count",
    [
        (
            ["--domain", "triangle", "--qn", "2,1", "--at", "1,2,3"],
            "3 coordinates; the triangle-neumann domain takes 2",
        ),
        (
            ["--domain", "box", "--dim", "3", "--qn", "1,0,0", "--at", "0,0"],
            "2 coordinates; the box3-neumann domain takes 3",
        ),
    ],
    ids=["triangle", "box3"],
)
def test_point_of_the_wrong_arity_names_the_expected_count(capsys, argv, count):
    assert main(["eval", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: point ") and count in err, err
    assert "outside" not in err


def test_triangle_refuses_a_dimension_other_than_two(capsys):
    for argv in (["verdicts", "--cutoff", "20"], ["spectrum", "--cutoff", "20"]):
        assert main([*argv, "--domain", "triangle", "--dim", "7"]) == 1, argv
        err = capsys.readouterr().err
        assert err == "error: --dim 7 does not apply: the triangle is planar\n", argv
    argv = ["verdicts", "--domain", "triangle", "--dim", "2", "--cutoff", "20"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and out
    # boxes keep their default dimension of 2
    code, out = run_cli(capsys, ["spectrum", "--domain", "box", "--cutoff", "5", "--points"])
    assert code == 0 and all(len(row["members"][0]) == 2 for row in json.loads(out))


def test_huge_lambda_exits_cleanly(capsys):
    # the index reaches the odd core + 1 (5^400 + 1 and the box3 value
    # itself, which is odd) or lambda + 1, which the lattice budget refuses
    huge = str(10**400)
    for argv in (
        ["deficiency", "--domain", "triangle", "--lambda", huge],
        ["deficiency", "--domain", "box", "--dim", "3", "--lambda", f"1,{huge},0"],
        ["dirichlet-check", "--dim", "2", "--lambda", huge],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_an_overflowing_cutoff_is_named_as_given(capsys):
    # 10^400 is an exact Fraction whose double overflows; the budget error
    # names the cutoff, not inf
    assert main(["spectrum", "--domain", "triangle", "--cutoff", "1e400"]) == 1
    err = capsys.readouterr().err
    assert "inf" not in err
    assert err == f"error: the cutoff {10**400} is over the triangle-neumann lattice " \
        "budget of 1048576 points\n"
    # an AlgebraicValue cutoff is named by its text, and one past Python's
    # int-to-str limit still ends in the same error
    for argv in (
        ["deficiency", "--domain", "box", "--dim", "3", "--lambda", f"1,{10**400},0"],
        ["spectrum", "--domain", "box", "--cutoff", "1e5000"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: the cutoff ") and "budget" in err, argv
        assert "inf" not in err, argv


def test_checks_are_exact_in_eight_dimensions(capsys):
    code, out = run_cli(
        capsys, ["checkframe", "--domain", "box", "--dim", "8", "--qn", "1,0,0,0,0,0,0,0"]
    )
    assert code == 0
    assert json.loads(out) == {
        "qn": [1, 0, 0, 0, 0, 0, 0, 0],
        "eigenvalue": "1",
        "k": 0,
        "vanishes": True,
        "failing_facet": None,
    }
    # (0, ..., 0, 1) is (1, 0, ..., 0) unfolded seven times
    code, out = run_cli(
        capsys, ["checkframe", "--domain", "box", "--dim", "8", "--qn", "0,0,0,0,0,0,0,1"]
    )
    assert code == 0 and json.loads(out)["k"] == 7 and json.loads(out)["vanishes"]
    for bc, want in (("neumann", "even"), ("dirichlet", "odd")):
        code, out = run_cli(
            capsys,
            ["checksym", "--domain", "box", "--dim", "8", "--bc", bc, "--qn", "2,1,1,1,1,1,1,1"],
        )
        assert code == 0 and json.loads(out)["symmetry"] == want


def test_checks_have_no_samples_option():
    for command in ("checksym", "checkframe"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--domain", "triangle", "--qn", "2,1", "--samples", "10"])
        assert exc.value.code == 2


def test_deficiency_box6_counts_the_frame_exactly(capsys):
    code, out = run_cli(capsys, ["deficiency", "--domain", "box", "--dim", "6", "--lambda", "1"])
    assert code == 0
    assert json.loads(out)["partition_size"] == 2


def test_deficiency_triangle_at_k_18(capsys):
    # k = 18, past every frame the lattice oracle labels: M(18) = (2^8 + 1)^2
    code, out = run_cli(capsys, ["deficiency", "--domain", "triangle", "--lambda", "262144"])
    assert code == 0
    report = json.loads(out)
    assert (report["k"], report["partition_size"], report["bound"]) == (18, 66049, 0)


def test_deficiency_refuses_a_value_past_2_to_1023(capsys):
    # cores 1 and 5 need a tiny index, but the report prints the value's
    # double, so values from 2^1023 on are refused
    code, out = run_cli(capsys, ["deficiency", "--domain", "triangle", "--lambda", str(2**1022)])
    assert code == 0 and json.loads(out)["k"] == 1022
    for lam in (2**1023, 2**1100, 5 * 2**1100):
        assert main(["deficiency", "--domain", "triangle", "--lambda", str(lam)]) == 1
        assert capsys.readouterr().err == (
            f"error: {lam} is too large: deficiency bounds take values below 2^1023\n"
        )


def test_deficiency_refusals_keep_their_messages(capsys):
    # zero, a value with no lattice point, an even value whose core (3) has
    # none, and an even box3 value that gamma^2 does not divide
    for argv, message in (
        (["--domain", "triangle", "--lambda", "0"], "the ground state has no deficiency bound"),
        (["--domain", "triangle", "--lambda", "3"], "3 is not in the spectrum below the cutoff"),
        (["--domain", "triangle", "--lambda", "6"], "6 is not in the spectrum below the cutoff"),
        (["--domain", "box", "--dim", "3", "--lambda", "2,1,0"],
         "2 + 1*g^1 is not in the spectrum below the cutoff"),
    ):
        assert main(["deficiency", *argv]) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_frame_beyond_the_budget_fails_fast(capsys):
    for argv in (
        ["frame", "--domain", "triangle", "--k", "40"],
        ["checkframe", "--domain", "triangle", "--qn", f"{2**20},0"],
    ):
        t0 = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_nodal_grid_beyond_the_budget_fails_cleanly(capsys):
    # the axes alone hold 1.7e8 samples, against a budget of 3.4e7
    argv = ["nodal", "--domain", "box", "--dim", "2", "--qn", "1,0", "--grid", "100000000"]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 0.5
    assert "budget" in capsys.readouterr().err


# sha256 of stdout, recorded before the spectrum core was rebuilt on numpy
# columns; the rebuild keeps every byte
PINNED_OUTPUTS = [
    (["spectrum", "--domain", "box", "--dim", "3", "--cutoff", "60"],
     "3c45c87978045242db261685eaad587dbd4bb2fccacb0d57d873339398fe71fe"),
    (["spectrum", "--domain", "box", "--dim", "4", "--cutoff", "40"],
     "094658b70913184d95e6c5cb045b03f16be971a7c3553cfb06359c09392ce131"),
    (["spectrum", "--domain", "box", "--dim", "6", "--cutoff", "30"],
     "05dcc8e92e027125f3becff8987bc75a83019d67f6976ced8c4fb9685a9fc976"),
    (["spectrum", "--domain", "triangle", "--cutoff", "2000"],
     "7e8ff4f01b10cf2c164b29cd0e6e5d458cfad55e0992035f26b1d98b6689ba9a"),
    (["spectrum", "--domain", "box", "--dim", "2", "--bc", "dirichlet", "--cutoff", "300"],
     "9cc4b9b976c2b80f98c92e37f88f4cbb8ddb7c0dc1fd8668e83d850bc23569d3"),
    # the benchmark's spectrum-box sizes, recorded before the rows were
    # streamed through the JSON writer
    (["spectrum", "--domain", "box", "--dim", "5", "--cutoff", "120"],
     "3bcbed601b0f1d74b02dfefc5bdfcbce1b49f8a3520e88ae88b0557fe87f52a1"),
    (["spectrum", "--domain", "box", "--dim", "6", "--cutoff", "80"],
     "718637fdbcc9c5fbcb01e50c761fb53e9cdb20a1348c234e677d7092311f7be2"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_OUTPUTS, ids=[" ".join(a[2:]) for a, _ in PINNED_OUTPUTS]
)
def test_spectrum_points_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, argv + ["--points", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verdicts_bytes_are_pinned(capsys):
    argv = ["verdicts", "--domain", "box", "--dim", "3", "--cutoff", "60", "--format", "json"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "1e73a5eeec0abb943f58bf38fdd7f56690e3201532edada0f95b484754529796"
    )


def test_triangle_verdicts_bytes_are_pinned(capsys):
    # sha256 recorded before the witness checks moved to integer arrays
    argv = ["verdicts", "--domain", "triangle", "--cutoff", "50000", "--format", "json"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert (
        hashlib.sha256(out.encode("utf-8")).hexdigest()
        == "aec7cb75c12ceafff81a4b41c4045bbf2025beabec8e72101b88d6f242f30f06"
    )


# sha256 of stdout, recorded before the spectrum and verdict rows were
# streamed through the JSON writer and the CSV header taken from the schema
PINNED_ROW_OUTPUTS = [
    (["spectrum", "--domain", "box", "--dim", "3", "--cutoff", "60", "--points",
      "--format", "csv"],
     "d6164b8c618e3a68b0486b7575a3691257527b62902361f8b5e323db004f77d0"),
    (["spectrum", "--domain", "triangle", "--cutoff", "2000", "--points", "--format", "csv"],
     "414efc0e9cb07e80fe24d8d866c266588acf9775d6a274dbdac71b661d60e1c2"),
    (["verdicts", "--domain", "box", "--dim", "3", "--cutoff", "60", "--format", "csv"],
     "66b301b4347befa82cb3d74d3ee763fb4d063452e7db9274ccfb152793e130fd"),
    (["verdicts", "--domain", "triangle", "--cutoff", "5000", "--format", "csv"],
     "20a372fe35baf03d422f8341b4976a7e7dfe53b99da4b6537e59db816787462f"),
    (["verdicts", "--domain", "box", "--dim", "2", "--cutoff", "2000", "--format", "table"],
     "b5acc2ae2b0c24eb2c4f5910a7189a62f3d981e016c7eff851e8facfa27f4d4f"),
    # recorded before the triangle verdicts were written from columns
    (["verdicts", "--domain", "triangle", "--cutoff", "5000", "--format", "table"],
     "9c6df2c3f7dc716ccb9a7acaadd5b0529c57167dd0d330883d2fc62d141a87b2"),
    (["verdicts", "--domain", "triangle", "--cutoff", "100001/2", "--format", "json"],
     "485d2be773b585c7226246663d97109e51fad9364544cbde2396ad05067005ba"),
    (["spectrum", "--domain", "triangle", "--bc", "dirichlet", "--cutoff", "2000", "--points",
      "--format", "json"],
     "47359f5d53c3d99c112ba3caba20f802b0dc12b2f6c24cb7dcba61a4d3b9a6f9"),
    # recorded before the box verdicts joined the verdict columns: multiple
    # eigenvalues, explicit counts and smaller points, and one --explain of
    # each domain
    (["verdicts", "--domain", "box", "--dim", "2", "--cutoff", "2000", "--format", "json"],
     "8535c8146bac6ca4d6fc62cf18b950488a2002cb81dcd93f378d31051c427493"),
    (["verdicts", "--domain", "box", "--dim", "4", "--cutoff", "500", "--format", "csv"],
     "ed22390b365763e1afda08b514f7fd57d02f2d8c5ecef50d220488fb9491127b"),
    (["verdicts", "--domain", "box", "--dim", "6", "--cutoff", "80", "--format", "json"],
     "a62b7a57b974f76fbfa1390128c77df50647095907d9148a0ab251fa3e4a638b"),
    (["verdicts", "--domain", "box", "--dim", "2", "--cutoff", "2000", "--explain", "40"],
     "2782960c659c5604d01df9d9ec1c5e3325355c0899b5ca1f0422fe9d5d02ab80"),
    (["verdicts", "--domain", "triangle", "--cutoff", "5000", "--explain", "100"],
     "9dcd3c9052c474fb06ded5ad3971f6623829262c816aa00f128b2dba0c3adb3c"),
    # recorded before the box witnesses became one array rule; each has
    # sharp positions [1, 2]
    (["verdicts", "--domain", "box", "--dim", "5", "--cutoff", "120", "--format", "csv"],
     "e35ea2f3c49e4c168afc5462dec4f8b29fdf7681a628cfde3619c4d59e48f89c"),
    (["verdicts", "--domain", "box", "--dim", "7", "--cutoff", "60", "--format", "csv"],
     "99309c8e3ff72648ee16b505006f6f70476b3df9762f36be6281113b1eff73df"),
    (["verdicts", "--domain", "box", "--dim", "8", "--cutoff", "40", "--format", "csv"],
     "1267ac551b4958352ebdc1fc4909cfbab95906193323009386662721aa951979"),
    # recorded before an index lookup built only the Level it returns and
    # the closed-form counts became one column rule
    (["deficiency", "--domain", "triangle", "--lambda", "999997"],  # bound 359
     "2dc00589d30be8e29f1417d06b52bd3dfd6649832297ba3224a56d53e9be9c9f"),
    (["deficiency", "--domain", "box", "--dim", "6", "--lambda", "150,0,0"],
     "07598b0351f92be21a4d74e4899115550a7928da9cf39f462359bcee6b853511"),
    (["dirichlet-check", "--dim", "2", "--lambda", "300"],
     "e282d00aa4d0a2d9a7c65fe49f8b56aa5e32b8a558e368e9021d7efb1208a459"),
    (["nodal", "--domain", "triangle", "--qn", "100000000000000000000,0"],
     "937dbb683107d406bf2e499bedfd58aca56ad73f087cc045272675ca8883116d"),
    # recorded before the right-boundary parity split was read from the
    # index: a multiple core (d = 5, boundary_even 22), a box4 value with
    # k = 4, an odd simple box3 value (boundary_even 6) and one identity
    # check each in dimensions 3 and 4 with a simple fold
    (["deficiency", "--domain", "triangle", "--lambda", "4225"],
     "92567398438bbd7a59318a3d71885cf2aa517e813c52776922fe1a1eb1a51ff5"),
    (["deficiency", "--domain", "box", "--dim", "4", "--lambda", "12,4"],
     "949ecf268815dbe62a909133f361a2e78795029ae920a43bba57276fd85245b2"),
    (["deficiency", "--domain", "box", "--dim", "3", "--lambda", "1,8,4"],
     "c008d0163e7f956d67373ca4e4a671fb9424b3acee3a315586e36d5ebb2b9395"),
    (["dirichlet-check", "--dim", "3", "--lambda", "16,2,1"],  # boundary_odd 4
     "8bf4868b4aa7a0b8008c65003676388eff71640075e1e4a9f16bd279ea487c22"),
    (["dirichlet-check", "--dim", "4", "--lambda", "12,6"],  # boundary_odd 5
     "763dc7994a06d48a876c156bb4bcd9f46ffc5b644ed8b5171f6c4f99e4f27d06"),
    # odd core 1 at k = 22 and 30, read from an index through 2: the index
    # through lambda + 1 was over the lattice budget
    (["deficiency", "--domain", "triangle", "--lambda", "4194304"],  # M 1050625, bound 0
     "cb76df424565e9523c426d48c348707baa7f140c6bb35947364a5ab3969a0dff"),
    (["deficiency", "--domain", "box", "--dim", "2", "--lambda", "1073741824"],  # M 32769, bound 0
     "eaca9fab1f104bc1e4163255e7804b89998430773b397c6ee3a930fa08cb5309"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_ROW_OUTPUTS, ids=[" ".join(a) for a, _ in PINNED_ROW_OUTPUTS]
)
def test_csv_and_table_bytes_are_pinned(capsys, argv, digest):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the SVG file, recorded before nodal_svg found each row's sign
# runs with numpy instead of one pixel at a time
PINNED_SVGS = [
    (["--domain", "triangle", "--qn", "5,2"],
     "10bdf2a4d3ce83038419292c0e288023d5baee6773b0ca519a0f4f1b43274b42"),
    (["--domain", "triangle", "--bc", "dirichlet", "--qn", "5,2"],
     "4735cd9f1b50b5666ea24426e44d93b5f697239cd1bfe52e38bac61b5a5481e9"),
    (["--domain", "box", "--dim", "2", "--qn", "3,1"],
     "c8a5ad18a3b9832bba50e01986b41de7575009f8402e26507bd3e7014b13cbf2"),
]


@pytest.mark.parametrize("argv,digest", PINNED_SVGS, ids=[" ".join(a) for a, _ in PINNED_SVGS])
def test_nodal_svg_bytes_are_pinned(tmp_path: Path, capsys, argv, digest):
    svg = tmp_path / "nodal.svg"
    code, _ = run_cli(capsys, ["nodal", *argv, "--svg", str(svg)])
    assert code == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


SPECTRUM_HEADER = "position,value,float,multiplicity,parity,odd_core,k"
VERDICT_HEADER = "position,value,float,multiplicity,parity,core,k,sharp,reason,nu,witness"


@pytest.mark.parametrize(
    "argv,header",
    [
        (["spectrum", "--domain", "box", "--cutoff", "0"], SPECTRUM_HEADER),
        (["spectrum", "--domain", "box", "--cutoff", "-3"], SPECTRUM_HEADER),
        (["spectrum", "--domain", "box", "--cutoff", "0", "--points"],
         SPECTRUM_HEADER + ",members"),
        (["verdicts", "--domain", "triangle", "--cutoff", "0"], VERDICT_HEADER),
    ],
    ids=["spectrum-0", "spectrum-negative", "spectrum-points", "verdicts-0"],
)
def test_an_empty_result_prints_the_header_alone(capsys, argv, header):
    code, out = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0 and out == header + "\n"
    code, out = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0 and out == "[]\n"


def json_rows(fields, rows) -> str:
    return json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n"


def csv_rows(fields, rows) -> str:
    """The header and rows as csv.writer writes them, each nested value
    (members, witness) as compact JSON in its cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(
        [json.dumps(v) if isinstance(v, (dict, list, tuple)) else v for v in row] for row in rows
    )
    return buf.getvalue()


def assert_rows_are_the_verdict_rows(table):
    # one table, two views: the rows written from the columns are the
    # serializers' own writing of Verdict.row, level by level
    rows = [v.row() for v in table]
    assert cli._verdicts_text(table, "json") == json_rows(courant.VERDICT_FIELDS, rows)
    assert cli._verdicts_text(table, "csv") == csv_rows(courant.VERDICT_FIELDS, rows)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 61, 5000])
def test_triangle_rows_are_the_verdict_rows(cutoff):
    assert_rows_are_the_verdict_rows(courant.classify(triangle(), cutoff))


@pytest.mark.parametrize("n,cutoff", [(2, 0), (2, 1), (2, 2000), (3, 200), (4, 100), (6, 40)])
def test_box_rows_are_the_verdict_rows(n, cutoff):
    # smaller points and members of every count go through the templates
    assert_rows_are_the_verdict_rows(courant.classify(box(n), cutoff))


# ---------------------------------------------------------------------------
# oracle: the row writers against json.dumps and csv.writer


def spectrum_rows(si, points: bool) -> list[tuple]:
    """The spectrum rows of an index from its Level objects and the scalar
    value functions, members included if points."""
    rows, position = [], 1
    for level in si.levels:
        value = level.value
        core = None if value.is_zero() else spectrum.odd_core(value)
        row = (
            position, value.text(), float(value), level.multiplicity, algebra.parity(value),
            None if core is None else core.core.text(), None if core is None else core.k,
        )
        rows.append(row + (list(level.members),) if points else row)
        position += level.multiplicity
    return rows


def assert_spectrum_rows_are_written_as_the_serializers_write_them(si):
    for points in (False, True):
        fields = cli._SPECTRUM_FIELDS + ("members",) if points else cli._SPECTRUM_FIELDS
        rows = spectrum_rows(si, points)
        assert cli._spectrum_text(si, points, "json") == json_rows(fields, rows)
        assert cli._spectrum_text(si, points, "csv") == csv_rows(fields, rows)


REASONS = [
    courant.GROUND_STATE, courant.ORTHOGONALITY_SECOND, courant.EXPLICIT_COUNT,
    courant.ODD_BOUNDARY, courant.SUBDOMAIN_MULTIPLICITY, courant.MULTIPLE_EIGENVALUE,
    courant.REFERENCE_SET_STRICT, courant.BOX_CASE_ANALYSIS,
]
# int64 coefficients of a core, small or near the int64 edge once scaled
CORE_COEFFS = st.sampled_from([0, 0, 1, -1, 3, 2**58 - 1, -(2**58)]) | st.integers(
    -(2**58), 2**58
)


@st.composite
def levels(draw):
    """(n, coefficient rows, member counts, seed): rows of ring n (1 is the
    triangle's) of any nonzero pattern, each gamma^(2k) times an odd core
    or the zero row, so that every row has an odd core in int64."""
    n = draw(st.integers(1, 12))
    r = algebra.basis_len(n)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        core = draw(st.lists(CORE_COEFFS, min_size=r, max_size=r))
        if any(core):
            core[0] |= 1
        value = algebra.scale_gamma2(AlgebraicValue(n, tuple(core)), draw(st.integers(0, 4)))
        rows.append(value.coeffs)
    counts = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    return n, rows, counts, draw(st.integers(0, 2**32))


def fake_region(n, rows, counts, seed) -> LatticeRegion:
    """A region of the given levels whose members are random int64 points:
    the writers check nothing about them."""
    domain = triangle() if n == 1 else box(n)
    coeffs = np.array(rows, dtype=np.int64).reshape(len(rows), algebra.basis_len(n))
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    members = np.random.default_rng(seed).integers(
        -(2**62), 2**62, size=(int(offsets[-1]), domain.coords)
    )
    return LatticeRegion(domain, 0, coeffs, offsets, members)


def fake_table(region, reasons, nus, sharp, seed) -> courant.VerdictTable:
    rng = np.random.default_rng(seed + 1)
    levels = len(region.coeffs)
    core, k = spectrum.odd_core_columns(region.domain.ring, region.coeffs)
    return courant.VerdictTable(
        region, rng.integers(0, 2**62, size=levels), np.diff(region.offsets), core, k,
        np.array(sharp, dtype=bool), np.array(reasons, dtype=object),
        np.array(nus, dtype=np.int64),
        rng.integers(-(2**62), 2**62, size=(levels, 2, region.domain.coords)),
    )


@settings(max_examples=200, deadline=None)
@given(levels())
def test_spectrum_writer_matches_json_dumps(case):
    # JSON and CSV, with and without members, on int64 rows of every
    # nonzero pattern in rings 1 to 12
    assert_spectrum_rows_are_written_as_the_serializers_write_them(
        spectrum.SpectrumIndex(fake_region(*case))
    )


@settings(max_examples=200, deadline=None)
@given(levels(), st.data())
def test_verdicts_writer_matches_json_dumps(case, data):
    # any reason, sharpness and nu (-1 is null) on the same rows
    size = len(case[1])
    each = lambda s: data.draw(st.lists(s, min_size=size, max_size=size))  # noqa: E731
    table = fake_table(
        fake_region(*case), each(st.sampled_from(REASONS)),
        each(st.just(-1) | st.integers(0, 2**62)), each(st.booleans()), case[3],
    )
    assert_rows_are_the_verdict_rows(table)


@pytest.mark.parametrize("n", [1, 3, 4], ids=["triangle", "box3", "box4"])
def test_verdicts_writer_covers_every_reason_count_and_null_nu(n):
    # every reason at member counts 1 to 6 with nu null and not, each value
    # an odd core scaled k = 0..3 times, after the ground state
    r = algebra.basis_len(n)
    cases = [(reason, count, nu) for reason in REASONS for count in range(1, 7) for nu in (-1, 7)]
    rows = [(0,) * r] + [
        algebra.scale_gamma2(AlgebraicValue(n, (2 * i + 1,) + (i % 3,) * (r - 1)), i % 4).coeffs
        for i in range(len(cases))
    ]
    region = fake_region(n, rows, [1] + [count for _, count, _ in cases], seed=n)
    table = fake_table(
        region, [courant.GROUND_STATE] + [reason for reason, _, _ in cases],
        [1] + [nu for _, _, nu in cases],
        [True] + [reason in courant.SHARP_REASONS for reason, _, _ in cases], seed=n,
    )
    assert_rows_are_the_verdict_rows(table)


@pytest.mark.parametrize(
    "domain,cutoff",
    [(box(n), c) for n, c in ((2, 400), (3, 120), (4, 60), (5, 40), (6, 30), (7, 20),
                             (8, 16), (9, 14), (10, 12), (11, 12), (12, 12))]
    + [(triangle(), 2000), (triangle(DIRICHLET), 2000), (box(2, DIRICHLET), 300),
       (box(3), 0), (box(3), 1), (triangle(), 1), (box(80), 3)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_member_texts_match_json_dumps(domain, cutoff):
    # the whole rows of real indexes, members and all: every member count
    # and value and core pattern of each index goes through a template;
    # cutoff 0 leaves no level and cutoff 1 only the ground state; box80's
    # 80 pattern key columns pass 2^62 as one code, which is renumbered
    si = spectrum.build_index(domain, cutoff)
    assert_spectrum_rows_are_written_as_the_serializers_write_them(si)
    if domain.bc == NEUMANN:
        assert_rows_are_the_verdict_rows(courant.classify_index(si))


@pytest.mark.parametrize("n", [0, 1, 9000])
def test_float_texts_match_json_dumps(n):
    # the writers encode a float column in one call; the empty column has
    # its own case
    specials = [-0.0, 1e-300, 1e22, 5e-324, math.inf, -math.inf, math.nan]
    xs = [specials[i % 7] if i % 5 == 0 else i / 7 for i in range(n)]
    assert list(cli._json_floats(xs)) == [json.dumps(x) for x in xs]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--domain", "triangle", "--cutoff", "5", "-o", "{dir}"],
        ["deficiency", "--domain", "triangle", "--lambda", "50", "-o", "{missing}/d.json"],
        ["nodal", "--domain", "triangle", "--qn", "2,1", "--svg", "{missing}/x.svg"],
        ["frame", "--domain", "triangle", "--k", "2", "--svg", "{missing}/x.svg"],
    ],
    ids=["spectrum-directory", "deficiency", "nodal-svg", "frame-svg"],
)
def test_an_unwritable_output_ends_in_an_error_line(tmp_path: Path, capsys, argv):
    argv = [a.format(dir=tmp_path, missing=tmp_path / "missing") for a in argv]
    path = argv[-1]
    assert main(argv) == 1
    captured = capsys.readouterr()
    reason = "Is a directory" if path == str(tmp_path) else "No such file or directory"
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert captured.out == ""

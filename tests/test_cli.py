import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdescent
from pdescent import cli, complexes, tower
from pdescent.cli import (
    emit_report,
    main,
    parse_matrix_file,
    parse_records_file,
    parse_series_file,
)
from pdescent.complexes import TwoComplex, parse_presentation
from pdescent.errors import InvariantError, ParseError

TORUS = "p = 2\ngens = a b\nrel = abAB\n"
GENUS2 = "p = 2\ngens = a b c d\nrel = abABcdCD\n"
F2 = "p = 2\ngens = a b\n"
DATA = Path(__file__).parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_echo_round_trip(tmp_path, capsys):
    noisy = "# comment\n\np = 2\ngens = a b\n\nrel = abAB  # inline\n"
    path = write(tmp_path, "noisy.txt", noisy)
    code, out = run(capsys, ["echo", path])
    assert code == 0
    assert parse_presentation(out) == parse_presentation(noisy)
    # echoing the echo is a fixed point
    path2 = write(tmp_path, "canon.txt", out)
    code, out2 = run(capsys, ["echo", path2])
    assert code == 0
    assert out2 == out


def test_descend_structured_output(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    code, out = run(capsys, ["descend", path, "--series", "rank:2", "--depth", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "decay-certified"
    assert doc["u"] == 2
    assert doc["lambda_estimate"] == "2"
    assert doc["uniform_factor"] == "6/7"
    assert [lvl["index"] for lvl in doc["levels"]] == [1, 4, 16]
    assert [lvl["relsize_upper"] for lvl in doc["levels"]] == ["1/2", "3/16", "3/32"]
    for key in (
        "index",
        "quotient_rank",
        "d_p",
        "supp",
        "edges",
        "relsize_upper",
        "bound_factor",
        "wedge_count",
    ):
        assert key in doc["levels"][0]
    assert out.endswith("\n")


def test_descend_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    argv = ["descend", path, "--series", "rank:2", "--depth", "2", "--seed", "7"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_descend_exit_codes(tmp_path, capsys):
    genus2 = write(tmp_path, "genus2.txt", GENUS2)
    free = write(tmp_path, "f2.txt", F2)
    # budget exhaustion still prints the partial report
    code, out = run(capsys, ["descend", genus2, "--series", "rank:2", "--budget", "20"])
    assert code == 3
    assert json.loads(out)["verdict"] == "budget-exhausted"
    # flat prefix: parameter estimation fails without --u
    code, _ = run(capsys, ["descend", free])
    assert code == 2
    # but an explicit --u runs
    code, out = run(capsys, ["descend", free, "--u", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == "bound-violated"


def test_missing_file_is_precondition_error(capsys):
    code, _ = run(capsys, ["descend", "/nonexistent/x.txt"])
    assert code == 2


def test_composite_prime_rejected(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "p = 4\ngens = a b\n")
    code, _ = run(capsys, ["descend", path, "--u", "1"])
    assert code == 2
    good = write(tmp_path, "good.txt", F2)
    code, _ = run(capsys, ["relsize", good, "--p", "9"])
    assert code == 2


def test_table_format(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    code, out = run(capsys, ["descend", path, "--series", "rank:2", "--format", "table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: descend"
    header = lines[1].split()
    assert header[:4] == ["level", "index", "quotient_rank", "d_p"]
    assert any(line.startswith("verdict: decay-certified") for line in lines)


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    dest = tmp_path / "report.json"
    code, out = run(capsys, ["descend", path, "--series", "rank:2", "--out", str(dest)])
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["command"] == "descend"


def test_cyclic_command(tmp_path, capsys):
    path = write(tmp_path, "f2.txt", F2)
    code, out = run(capsys, ["cyclic", path, "--weights", "1,0", "--depth", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_limit_signal"] is True
    assert doc["limit_estimate"] == "9/8"
    assert doc["entries"][0] == [1, 2, "2"]
    assert doc["entries"][-1] == [8, 9, "9/8"]
    torus = write(tmp_path, "torus.txt", TORUS)
    code, out = run(capsys, ["cyclic", torus, "--depth", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_limit_signal"] is False
    assert all(dp == 2 for _, dp, _ in doc["entries"])
    # zero weights rejected
    code, _ = run(capsys, ["cyclic", path, "--weights", "0,0"])
    assert code == 2


def test_cyclic_weights_may_start_negative(tmp_path, capsys):
    genus2 = str(DATA / "genus2_p3.txt")
    code, attached = run(capsys, ["cyclic", genus2, "--weights=-1,2,0,3", "--depth", "6"])
    assert code == 0
    code, separate = run(capsys, ["cyclic", genus2, "--weights", "-1,2,0,3", "--depth", "6"])
    assert code == 0
    assert separate == attached
    assert json.loads(separate)["weights"] == [-1, 2, 0, 3]
    for bad in ("-1,x,0,3", "-1,2,0"):
        for argv in (["--weights", bad], [f"--weights={bad}"]):
            code, out = run(capsys, ["cyclic", genus2, *argv])
            assert (code, out) == (2, "")


AAB = "p = 3\ngens = a b\nrel = aab\n"
A4 = "p = 3\ngens = a b\nrel = aaaa\n"


@pytest.mark.parametrize(
    "text, weights, message",
    [
        (GENUS2, "0,0,0,0", "weights induce the zero homomorphism"),
        (GENUS2, "2,4,0,6", "weights generate 2Z, not all of Z"),
        (AAB, "1,1", "weights evaluate to 3 on the boundary of face 0"),
        (AAB, "2,0", "weights generate 2Z, not all of Z"),
        (GENUS2, "1,0,0", "--weights needs 4 integers, got 3"),
        (GENUS2, "99999999999999999999,1,0,0",
         "weight 99999999999999999999 does not fit in a 64-bit integer"),
        # 4 * 2**62 wraps to 0 in int64: the face sum is checked exactly
        (A4, "4611686018427387904,1",
         "weights evaluate to 18446744073709551616 on the boundary of face 0"),
    ],
)
def test_cyclic_weight_errors_exit_2_with_one_line(tmp_path, capsys, text, weights, message):
    path = write(tmp_path, "pres.txt", text)
    assert main(["cyclic", path, f"--weights={weights}", "--depth", "4"]) == 2
    assert capsys.readouterr() == ("", f"pdescent: {message}\n")


def test_argparse_error_leaves_the_parser_unchanged(tmp_path, capsys):
    # main reuses one parser; a rejected command line must not change how
    # the next one parses
    path = write(tmp_path, "t.txt", TORUS)
    good = ["cheeger", path, "--mode", "heuristic", "--seed", "3", "--format", "table"]
    outcomes = []
    for argv in (good, ["cheeger", path, "--mode", "bogus"], good):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[2]
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""
    assert outcomes[1][0] == 2 and "invalid choice: 'bogus'" in outcomes[1][2]


def test_criteria_command(tmp_path, capsys):
    recs = write(tmp_path, "recs.txt", "record = 1 2\nrecord = 4 5\n")
    code, out = run(capsys, ["criteria", recs])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [[1, 2], [4, 5]]
    assert doc["rank_ratios"] == ["2", "5/4"]
    assert doc["rank_ratio_min"] == "5/4"
    assert doc["log_ratio_nondecreasing"] is False
    assert "not a proof" in doc["disclaimer"]
    bad = write(tmp_path, "bad.txt", "record = 4 5\nrecord = 1 2\n")
    code, _ = run(capsys, ["criteria", bad])
    assert code == 2


def test_reduce_command(tmp_path, capsys):
    mat = write(tmp_path, "m.txt", "p = 2\nrow = 1 1 0 0 1\nrow = 0 1 1 0 1\nrow = 0 0 1 1 1\n")
    code, out = run(capsys, ["reduce", mat, "--u", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["input_dim"] == 3
    assert doc["target_dim"] == 1
    assert doc["mode"] == "exact"
    assert doc["certified"] is True
    assert len(doc["basis"]) == 1
    # a repeated row and a multiple of another change neither the input
    # dimension, which is the rank, nor anything else in the report
    rows = ["1 1 0 0 1", "0 1 1 0 1", "0 0 1 1 1"]
    for p, k in ((2, 3), (3, 2)):
        multiple = " ".join(str(k * int(x)) for x in rows[2].split())
        reports = []
        for name, extra in (("plain", []), ("dependent", [rows[1], multiple])):
            text = f"p = {p}\n" + "".join(f"row = {r}\n" for r in rows + extra)
            path = write(tmp_path, f"{name}{p}.txt", text)
            reports.append(run(capsys, ["reduce", path, "--u", "1"]))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and json.loads(reports[0][1])["input_dim"] == 3
    # target above the input dimension is a precondition failure
    code, _ = run(capsys, ["reduce", mat, "--u", "3"])
    assert code == 2


def test_reduce_rejects_entries_beyond_int64(tmp_path, capsys):
    text = "p = 3\nrow = 1 0 {}\nrow = 0 1 {}\n"
    big = write(tmp_path, "big.txt", text.format(1, 99999999999999999999))
    assert main(["reduce", big, "--u", "1"]) == 2
    assert capsys.readouterr().err == (
        "pdescent: line 3: entry 99999999999999999999 does not fit in a 64-bit integer\n"
    )
    low = write(tmp_path, "low.txt", text.format(-(2**63) - 1, 0))
    assert main(["reduce", low, "--u", "1", "--p", "5"]) == 2
    assert "line 2: entry -9223372036854775809 does not fit" in capsys.readouterr().err
    # the int64 extremes themselves are read, and reduced mod p after --p
    edge = write(tmp_path, "edge.txt", text.format(-(2**63), 2**63 - 1))
    assert main(["reduce", edge, "--u", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == [[1, 0, 1]]


def test_reduce_out_of_range_names_the_input_dimension(tmp_path, capsys):
    zero = write(tmp_path, "zero.txt", "p = 3\nrow = 0 0 0 0\nrow = 0 0 0 0\n")
    assert main(["reduce", zero, "--u", "1"]) == 2
    assert capsys.readouterr().err == (
        "pdescent: target dimension 1 must be at least 1 and below the input dimension 0\n"
    )


def test_cheeger_command(tmp_path, capsys):
    path = write(tmp_path, "f2.txt", F2)
    code, out = run(capsys, ["cheeger", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4
    assert doc["cheeger"] == "2"
    code, out = run(capsys, ["cheeger", path, "--mode", "heuristic", "--seed", "3"])
    assert code == 0


def test_relsize_command(tmp_path, capsys):
    path = write(tmp_path, "torus.txt", TORUS)
    code, out = run(capsys, ["relsize", path, "--class-index", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["relsize"] == "1/2"
    code, _ = run(capsys, ["relsize", path, "--class-index", "9"])
    assert code == 2


def test_cover_command(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    code, out = run(capsys, ["cover", path, "--series", "rank:2", "--depth", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "completed"
    assert [lvl["index"] for lvl in doc["levels"]] == [1, 4, 16]
    assert [lvl["d_p"] for lvl in doc["levels"]] == [4, 10, 34]
    assert all(
        lvl["euler"] == lvl["index"] * doc["levels"][0]["euler"] for lvl in doc["levels"]
    )
    code, _ = run(capsys, ["cover", path, "--budget", "5"])
    assert code == 3


def test_trivial_h1_completes_the_tower(capsys):
    # <a | aa> at p = 2: level 2 is simply connected, which ends the tower
    # with exit 0, in `cover` and in `cheeger`
    path = str(DATA / "z2_p2.txt")
    code, out = run(capsys, ["cover", path, "--depth", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "completed"
    assert [lvl["d_p"] for lvl in doc["levels"]] == [1, 0]
    assert doc["notes"] == ["level 2: H^1 is trivial, the tower ends here"]
    code, out = run(capsys, ["cheeger", path, "--depth", "3"])
    assert code == 0
    assert json.loads(out)["level"] == 2


@pytest.mark.parametrize(
    "argv, verdict, ranked",
    [
        (["cheeger", "genus2_p2.txt", "--series", "rank:2", "--depth", "2", "--mode", "heuristic"],
         None, 0),
        (["cover", "genus2_p3.txt", "--series", "rank:2", "--depth", "2"], "completed", 1),
        (["descend", "genus2_p2.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
         "decay-certified", 1),
        (["descend", "z2_p2.txt", "--u", "1", "--depth", "2"], "bound-violated", 1),
        (["descend", "tworel_p3.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
         "bound-violated", 1),
    ],
)
def test_only_the_deepest_complex_is_ranked(capsys, monkeypatch, argv, verdict, ranked):
    # a step level's d_p is the length of its H^1 basis, so h1_dimension runs
    # once, on the deepest complex, and only for a report that shows its d_p
    edges = []
    h1_dimension = complexes.h1_dimension

    def counted(K, p):
        edges.append(K.num_edges)
        return h1_dimension(K, p)

    for mod in (pdescent, complexes, tower, cli):
        if getattr(mod, "h1_dimension", None) is h1_dimension:
            monkeypatch.setattr(mod, "h1_dimension", counted)
    code, out = run(capsys, [argv[0], str(DATA / argv[1]), *argv[2:]])
    assert code == 0
    doc = json.loads(out)
    assert doc.get("verdict") == verdict
    deepest = doc["levels"][-1] if "levels" in doc else doc
    assert edges == [deepest["edges"]] * ranked


def test_series_file(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    series = write(tmp_path, "series.txt", "level = 0 2\nlevel = 0\n")
    code, out = run(capsys, ["cover", path, "--series", "file:" + series])
    assert code == 0
    doc = json.loads(out)
    assert [lvl["index"] for lvl in doc["levels"]] == [1, 4, 8]
    # asking deeper than the file provides is an error
    code, _ = run(
        capsys, ["cover", path, "--series", "file:" + series, "--depth", "3"]
    )
    assert code == 2


def test_file_format_parsers():
    assert parse_series_file("# x\nlevel = 0 1\nlevel = 2\n") == ((0, 1), (2,))
    with pytest.raises(ParseError):
        parse_series_file("levels = 0\n")
    with pytest.raises(ParseError):
        parse_series_file("\n")
    rows, p = parse_matrix_file("p = 3\nrow = 1 2\nrow = 0 1\n")
    assert p == 3 and rows.tolist() == [[1, 2], [0, 1]]
    with pytest.raises(ParseError):
        parse_matrix_file("p = 3\nrow = 1 2\nrow = 1\n")
    with pytest.raises(ParseError):
        parse_matrix_file("row = 1 2\n")
    with pytest.raises(ParseError, match="line 3: p given twice"):
        parse_matrix_file("p = 3\nrow = 1 2\np = 5\n")
    assert parse_records_file("record = 1 2\n") == ((1, 2),)
    with pytest.raises(ParseError):
        parse_records_file("record = 1\n")


def test_emit_report_rejects_unknown():
    with pytest.raises(ValueError):
        emit_report(42)
    with pytest.raises(ValueError):
        emit_report({"command": "x"}, format="yaml")


def test_every_command_is_deterministic(tmp_path, capsys):
    genus2 = write(tmp_path, "genus2.txt", GENUS2)
    f2 = write(tmp_path, "f2.txt", F2)
    torus = write(tmp_path, "torus.txt", TORUS)
    recs = write(tmp_path, "recs.txt", "record = 1 2\nrecord = 4 5\n")
    mat = write(tmp_path, "m.txt", "p = 2\nrow = 1 1 0\nrow = 0 1 1\n")
    invocations = [
        ["descend", genus2, "--series", "rank:2", "--seed", "1"],
        ["cyclic", f2, "--weights", "1,0", "--depth", "5"],
        ["criteria", recs],
        ["reduce", mat, "--u", "1", "--seed", "2"],
        ["cheeger", torus, "--mode", "heuristic", "--seed", "4"],
        ["relsize", torus],
        ["cover", genus2, "--series", "rank:2"],
        ["echo", genus2],
    ]
    for argv in invocations:
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second, argv


GOLDEN = [
    (["descend", "genus2_p2.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
     "descend_p2_rank2_u2_depth3.json"),
    (["cyclic", "genus2_p3.txt", "--weights=1,-2,0,3", "--depth", "24"],
     "cyclic_p3_depth24.json"),
    (["cover", "genus2_p3.txt", "--series", "rank:2", "--depth", "2", "--format", "table"],
     "cover_p3_rank2_depth2.txt"),
    (["cheeger", "genus2_p2.txt", "--series", "rank:2", "--depth", "3", "--mode", "heuristic"],
     "cheeger_p2_rank2_depth3_heuristic.json"),
    (["descend", "genus2_p2.txt", "--series", "rank:2", "--u", "2", "--depth", "5"],
     "descend_p2_rank2_u2_depth5.json"),
    (["descend", "genus2_p2.txt", "--series", "rank:2", "--u", "2", "--depth", "7"],
     "descend_p2_rank2_u2_depth7.json"),
    (["cyclic", "tworel_p3.txt", "--weights=1,0,1,-2", "--depth", "64"],
     "cyclic_p3_tworel_depth64.json"),
    (["cheeger", "genus2_p3.txt", "--series", "rank:2", "--depth", "2", "--mode", "heuristic",
      "--seed", "3"],
     "cheeger_p3_rank2_depth2_heuristic_seed3.json"),
    (["reduce", "matrix_p3_v8.txt", "--u", "2"], "reduce_p3_v8_u2.json"),
    (["reduce", "matrix_p2_v12.txt", "--u", "3"], "reduce_p2_v12_u3.json"),
    # odd p through the `scale` branch of the elimination, and a run that
    # stops at level 1 with 2 wedge classes for u = 2
    (["descend", "genus2_p3.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
     "descend_p3_rank2_u2_depth3.json"),
    (["descend", "genus2_p5.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
     "descend_p5_rank2_u2_depth3.json"),
    (["descend", "tworel_p3.txt", "--series", "rank:2", "--u", "2", "--depth", "3"],
     "descend_tworel_p3_rank2_u2_depth3.json"),
    (["cover", "tworel_p3.txt", "--series", "rank:2", "--depth", "4", "--format", "table"],
     "cover_tworel_p3_rank2_depth4.txt"),
    (["criteria", "records_f2_p2_derived.txt"], "criteria_f2_p2_derived.json"),
    (["criteria", "records_f2_p2_derived.txt", "--format", "table"],
     "criteria_f2_p2_derived.txt"),
    (["descend", "genus2_p2.txt", "--series", "rank:2", "--u", "2", "--depth", "3",
      "--format", "table"],
     "descend_p2_rank2_u2_depth3.txt"),
    # Z/2: the covering span is the family's own class, so the wedge span is empty
    (["descend", "z2_p2.txt", "--u", "1", "--depth", "2"], "descend_z2_p2_u1_depth2.json"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_reports_match_golden_fixtures(tmp_path, argv, expected):
    # the fixtures were written by the dense-elimination kernel and the
    # full-recount Cheeger sweeps; faster kernels must reproduce their
    # reports byte for byte
    out = tmp_path / "report"
    assert main([argv[0], str(DATA / argv[1]), *argv[2:], "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / expected).read_bytes()


def _subprocess_env(**extra):
    """This environment with the package's source first on PYTHONPATH, plus extra."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("argv, expected", GOLDEN)
def test_golden_reports_do_not_depend_on_asserts(tmp_path, argv, expected):
    # `python -O` strips every assert from the package; the reports must
    # come out the same, so no assert may carry work a report needs
    out = tmp_path / "report"
    env = _subprocess_env()
    cmd = [sys.executable, "-O", "-m", "pdescent.cli", argv[0], str(DATA / argv[1]), *argv[2:]]
    proc = subprocess.run([*cmd, "--out", str(out)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.read_bytes() == (DATA / expected).read_bytes()


def test_heuristic_cheeger_report_does_not_depend_on_blas_threads():
    # lambda_2 of this V=256 cover has multiplicity 4: a dense eigenvector
    # picked from that eigenspace changed with the BLAS thread count, while
    # the seeded start direction's projection on it must not
    argv = ["cheeger", str(DATA / "genus2_p2.txt"), "--series", "rank:2", "--depth", "4",
            "--mode", "heuristic"]
    reports = []
    for threads in ("1", "2", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "pdescent.cli", *argv],
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(proc.stdout)
    assert reports[0] == reports[1] == reports[2]


def test_invariant_failure_exits_4_under_optimisation():
    # invariant checks are explicit raises, so they fire under `python -O`
    # too; an independent rank one too high, still read off the
    # (ptr, cols, vals) rows, makes the cocycle-basis cross-check fail
    env = _subprocess_env()
    code = (
        "import sys\n"
        "if __debug__: sys.exit('asserts are enabled')\n"
        "from pdescent import cli, fplinalg\n"
        "rank = fplinalg.sparse_rank\n"
        "fplinalg.sparse_rank = lambda rows, p: rank(rows, p) + 1\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["descend", str(DATA / "genus2_p2.txt"), "--series", "rank:2", "--depth", "1"]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *argv], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 4, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "pdescent: internal invariant failed: "
        "cocycle basis size differs from dim H_1(K; F_p)\n"
    )


def test_invariant_error_is_not_a_precondition_error(tmp_path, capsys, monkeypatch):
    assert not issubclass(InvariantError, ValueError)
    # a degree-n cover must multiply chi by n; a chi of |V|^2 cannot
    chi = property(lambda K: K.num_vertices**2)
    monkeypatch.setattr(TwoComplex, "euler_characteristic", chi)
    path = write(tmp_path, "torus.txt", TORUS)
    assert main(["cover", path, "--series", "rank:1", "--depth", "1"]) == 4
    assert capsys.readouterr().err == (
        "pdescent: internal invariant failed: "
        "cover Euler characteristic is not degree times the base's\n"
    )


# numpy names the failed allocation; the interpreter raises a bare MemoryError
NUMPY_OOM = "Unable to allocate 8.00 GiB for an array with shape (65536, 16384)"


@pytest.mark.parametrize(
    "message, shown", [(NUMPY_OOM, NUMPY_OOM), ("", "allocation failed")]
)
def test_out_of_memory_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch, message, shown):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(tower, "build_abelian_p_cover", exhausted)
    path = write(tmp_path, "genus2.txt", GENUS2)
    for command in (["cover"], ["descend", "--u", "2"]):
        assert main([command[0], path, "--series", "rank:2", *command[1:]]) == 3
        assert capsys.readouterr() == ("", f"pdescent: out of memory: {shown}\n")


def test_budget_notes_name_the_projected_cells(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    note = "level 3: projected 2**2 * 96 cells exceeds budget 300"
    argv = [path, "--series", "rank:2", "--depth", "3", "--budget", "300"]
    code, out = run(capsys, ["cover", *argv])
    doc = json.loads(out)
    assert (code, doc["verdict"], doc["notes"]) == (3, "budget-exhausted", [note])
    assert [lvl["index"] for lvl in doc["levels"]] == [1, 4, 16]
    code, out = run(capsys, ["descend", *argv, "--u", "2"])
    assert (code, json.loads(out)["notes"]) == (3, [note])
    assert main(["cheeger", *argv]) == 3
    assert capsys.readouterr().err == f"pdescent: {note}\n"


def test_negative_budget_is_a_precondition_error(tmp_path, capsys):
    path = write(tmp_path, "genus2.txt", GENUS2)
    for command in ("cover", "descend", "cheeger"):
        assert main([command, path, "--budget", "-1"]) == 2
        assert capsys.readouterr() == ("", "pdescent: cell budget must be at least 0\n")
    # a budget of 0 is valid: level 1 already exceeds it
    assert main(["cover", path, "--budget", "0"]) == 3

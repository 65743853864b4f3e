import csv
import subprocess
import sys
from pathlib import Path

import pytest

from ffpoly.cli import BENCH_HEADER, format_poly, main, read_poly
from ffpoly.reference import ref_convolution, ref_divmod, ref_mulmod, ref_rem


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def poly_file(path, p, coeffs):
    return write(path, format_poly(p, coeffs))


def test_poly_io_roundtrip(tmp_path):
    path = poly_file(tmp_path / "x.poly", 7, [1, 2, 0, 1])
    assert read_poly(path) == (7, [1, 2, 0, 1])
    path = poly_file(tmp_path / "z.poly", 7, [])
    assert read_poly(path) == (7, [])


def test_rem_matches_spec_output(tmp_path, capsys):
    a = poly_file(tmp_path / "A.poly", 7, [1, 2, 0, 1])
    b = poly_file(tmp_path / "B.poly", 7, [1, 0, 1])
    assert main(["rem", "--mod", "7", a, b]) == 0
    assert capsys.readouterr().out == "7\n1 1\n"


def test_conv_matches_spec_output(tmp_path, capsys):
    a = poly_file(tmp_path / "a.poly", 5, [1, 2])
    b = poly_file(tmp_path / "b.poly", 5, [3, 1])
    c = poly_file(tmp_path / "c.poly", 5, [0, 0])
    assert main(["conv", "--mod", "5", "--f", "2", a, b, c]) == 0
    assert capsys.readouterr().out == "5\n2 2\n"
    assert ref_convolution([1, 2], [3, 1], 2, 2, 5) == [2, 2]


def test_quorem_writes_both_files(tmp_path):
    a = poly_file(tmp_path / "A.poly", 7, [1, 2, 0, 1])
    b = poly_file(tmp_path / "B.poly", 7, [1, 0, 1])
    out = tmp_path / "R.poly"
    assert main(["quorem", a, b, "--out", str(out)]) == 0
    assert read_poly(str(out)) == (7, [1, 1])
    q, r = ref_divmod([1, 2, 0, 1], [1, 0, 1], 7)
    assert read_poly(str(out) + ".q") == (7, q)
    assert r == [1, 1]


def test_quorem_remainder_matches_rem_below_the_divisor_degree(tmp_path):
    b = poly_file(tmp_path / "B.poly", 7, [1, 0, 0, 1])
    for coeffs in ([], [1, 2], [1, 2, 3]):
        a = poly_file(tmp_path / "A.poly", 7, coeffs)
        rem_out, quo_out = tmp_path / "rem.poly", tmp_path / "quo.poly"
        assert main(["rem", a, b, "--out", str(rem_out)]) == 0
        assert main(["quorem", a, b, "--out", str(quo_out)]) == 0
        assert quo_out.read_bytes() == rem_out.read_bytes()
        assert read_poly(str(rem_out)) == (7, coeffs + [0] * (3 - len(coeffs)))


def test_aper_accumulates(tmp_path, capsys):
    r = poly_file(tmp_path / "r.poly", 7, [1, 0])
    a = poly_file(tmp_path / "a.poly", 7, [1, 2, 0, 1])
    b = poly_file(tmp_path / "b.poly", 7, [1, 0, 1])
    assert main(["aper", r, a, b]) == 0
    got = capsys.readouterr().out
    want = [(x + y) % 7 for x, y in zip([1, 0], ref_rem([1, 2, 0, 1], [1, 0, 1], 7))]
    assert got == format_poly(7, want)


def test_mulmod_default_zero_accumulator(tmp_path, capsys):
    a = poly_file(tmp_path / "a.poly", 5, [1, 0, 0, 1])
    c = poly_file(tmp_path / "c.poly", 5, [0, 0, 0, 1])
    b = poly_file(tmp_path / "b.poly", 5, [1, 0, 1])
    assert main(["mulmod", a, c, b]) == 0
    assert capsys.readouterr().out == format_poly(5, ref_mulmod(
        [1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 1], 5))


def test_mulmod_with_accumulator(tmp_path, capsys):
    a = poly_file(tmp_path / "a.poly", 7, [2, 1])
    c = poly_file(tmp_path / "c.poly", 7, [1, 2, 3])
    b = poly_file(tmp_path / "b.poly", 7, [1, 0, 1])
    acc = poly_file(tmp_path / "r.poly", 7, [3, 3])
    assert main(["mulmod", "--acc", acc, a, c, b]) == 0
    want = [(3 + v) % 7 for v in ref_mulmod([2, 1], [1, 2, 3], [1, 0, 1], 7)]
    assert capsys.readouterr().out == format_poly(7, want)


def test_exit_code_precondition_violations(tmp_path, capsys):
    a = poly_file(tmp_path / "a.poly", 6, [1, 2])
    b = poly_file(tmp_path / "b.poly", 6, [1, 1])
    assert main(["rem", a, b]) == 1          # non-prime modulus
    a = poly_file(tmp_path / "a2.poly", 7, [1, 2])
    b = poly_file(tmp_path / "b2.poly", 7, [1, 0])
    assert main(["rem", a, b]) == 1          # zero leading coefficient
    b = poly_file(tmp_path / "b3.poly", 5, [1, 1])
    assert main(["rem", a, b]) == 1          # modulus mismatch
    c = poly_file(tmp_path / "c.poly", 7, [1])
    assert main(["conv", a, b3 := poly_file(tmp_path / "b4.poly", 7, [1, 1]), c]) == 1
    capsys.readouterr()


def test_library_preconditions_exit_1_with_nothing_printed(tmp_path, capsys):
    # the library checks these before any write; the CLI maps them to 1
    r3 = poly_file(tmp_path / "r3.poly", 7, [1, 2, 3])
    a = poly_file(tmp_path / "a.poly", 7, [1, 2, 0, 1])
    b = poly_file(tmp_path / "b.poly", 7, [1, 0, 1])
    zero_lead = poly_file(tmp_path / "z.poly", 7, [1, 0, 0])
    empty = poly_file(tmp_path / "e.poly", 7, [])
    c = poly_file(tmp_path / "c.poly", 7, [1, 2, 3])
    for argv in (["aper", r3, a, b],              # accumulator one too long
                 ["mulmod", a, c, zero_lead],
                 ["mulmod", a, c, empty],
                 ["conv", "--f", "7", b, c, c],   # f not a residue mod 7
                 ["conv", "--f", "-1", b, c, c]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().out == "", argv


def test_exit_code_parse_errors(tmp_path, capsys):
    bad = write(tmp_path / "bad.poly", "seven\n1 2\n")
    ok = poly_file(tmp_path / "ok.poly", 7, [1, 1])
    assert main(["rem", bad, ok]) == 2
    assert main(["rem", str(tmp_path / "missing.poly"), ok]) == 2
    noncanon = write(tmp_path / "nc.poly", "7\n9 1\n")
    assert main(["rem", noncanon, ok]) == 2
    # lines past the second, and tokens int() takes but the format does
    # not (underscores, signs), were accepted
    for text in ("7\n1 2\n3 4\n", "7\n0_1 2\n", "7\n+2 1\n", "0_7\n1 2\n"):
        assert main(["rem", write(tmp_path / "x.poly", text), ok]) == 2, text
    binary = tmp_path / "bin.poly"
    binary.write_bytes(b"7\n1 \xff 2\n")
    capsys.readouterr()
    assert main(["rem", str(binary), ok]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_flags_only_on_the_commands_that_read_them(tmp_path, capsys):
    a = poly_file(tmp_path / "a.poly", 7, [1, 2, 0, 1])
    b = poly_file(tmp_path / "b.poly", 7, [1, 0, 1])
    for argv in (["rem", "--seed", "1", a, b], ["selftest", "--mod", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_selftest_exits_zero(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "worked-example table OK" in out


def test_bench_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--seed", "7", "--sizes", "16,32", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == BENCH_HEADER
    rows = list(csv.DictReader(out.open()))
    assert rows, "bench produced no rows"
    ops = {r["op"] for r in rows}
    assert {"mul_full", "conv_f0", "conv_f1", "conv_f2", "rem_inplace",
            "mulmod_full"} <= ops
    for r in rows:
        for key in ("p", "n", "m", "l", "adds", "muls", "divs", "peak_aux", "depth"):
            assert int(r[key]) >= 0
        assert int(r["peak_aux"]) == 0


def test_bench_deterministic_counts(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    main(["bench", "--seed", "1", "--sizes", "16", "--out", str(out1)])
    main(["bench", "--seed", "2", "--sizes", "16", "--out", str(out2)])
    # counts are structural: different seeds, identical numbers
    assert out1.read_text() == out2.read_text()


def test_bench_matches_pinned_counts(tmp_path):
    # op counts, peak aux and depth are structural; any change to them shows
    # here as a diff against the committed output.  After a deliberate change
    # to counts or depth, regenerate the files from the repository root with
    #   ffpoly bench --seed 42 --out tests/data/bench_seed42.csv
    #   ffpoly bench --mod 2 --sizes 64,256 --seed 42 --out tests/data/bench_gf2_seed42.csv
    data = Path(__file__).resolve().parent / "data"
    for name, args in (("bench_seed42.csv", []),
                       ("bench_gf2_seed42.csv", ["--mod", "2", "--sizes", "64,256"])):
        out = tmp_path / name
        assert main(["bench", *args, "--seed", "42", "--out", str(out)]) == 0
        # row by row first, so a failure names the rows that changed
        assert out.read_text().splitlines() == (data / name).read_text().splitlines(), name
        assert out.read_bytes() == (data / name).read_bytes(), name


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ffpoly", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rem" in proc.stdout and "bench" in proc.stdout

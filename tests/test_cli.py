import hashlib
import json
import os

import pytest

from supchar import cli
from supchar import supercharacters as sc

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
# the incidence algebra over GF(3) of the zigzag poset 0<1>2<3, |G| = 432
ZIGZAG = os.path.join(os.path.dirname(__file__), "zigzag_poset_q3.json")
# GF(3) as a one-block algebra with J = 0
SEMISIMPLE = os.path.join(os.path.dirname(__file__), "semisimple_q3.json")


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_closed_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["table", "--n", "2", "--p", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("class,")
    assert lines[1].startswith("size,")
    assert len(lines) == 7


def test_table_both_matches(tmp_path):
    out = tmp_path / "t.csv"
    diff = tmp_path / "t.diff"
    code = run(["table", "--n", "2", "--p", "3", "--mode", "both",
                "--out", str(out), "--diff-out", str(diff)])
    assert code == 0
    assert "CHECK oracle-equivalence PASS" in diff.read_text()


def test_table_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert run(["table", "--n", "3", "--p", "2", "--format", "json",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["group_order"] == 8
    assert len(data["rows"]) == 5


def test_missing_n_or_p():
    assert run(["table", "--p", "3"]) == 2
    assert run(["table", "--n", "2"]) == 2
    assert run(["verify", "--n", "2"]) == 2


def test_n_too_small():
    assert run(["table", "--n", "1", "--p", "3"]) == 2


def test_composite_characteristic():
    assert run(["table", "--n", "2", "--p", "4"]) == 2


def test_bound_exceeded():
    assert run(["table", "--n", "9", "--p", "3", "--mode", "brute"]) == 3


def test_bound_env_override(monkeypatch):
    monkeypatch.setenv("SUPCHAR_BOUND", "10")
    assert run(["table", "--n", "2", "--p", "3", "--mode", "brute"]) == 3


def test_bad_spec_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(["algebra", "--spec", str(missing)], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["algebra", "--spec", str(bad)], capsys)
    assert code == 2
    assert run(["algebra"]) == 2


def test_verify_all_t23(capsys):
    code, out, _ = run(["verify", "--n", "2", "--p", "3", "--checks", "all"], capsys)
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("CHECK")]
    assert lines and all(" PASS " in l + " " or l.endswith("PASS") or " PASS" in l
                         for l in lines)
    names = {l.split()[1] for l in lines}
    assert {"counts", "orbits", "oracle", "restriction", "S2"} <= names


def test_verify_unknown_check():
    assert run(["verify", "--n", "2", "--p", "3", "--checks", "bogus"]) == 2


def test_verify_all_with_named_checks_exits_2(capsys):
    code, out, err = run(["verify", "--n", "2", "--p", "3", "--checks", "all", "counts"], capsys)
    assert code == 2 and out == ""
    assert "--checks all cannot be combined with named checks" in err


def test_verify_custom_algebra(capsys):
    spec_path = os.path.join(DATA, "dual_numbers_q3.json")
    code, out, _ = run(["verify", "--spec", spec_path, "--checks", "all"], capsys)
    assert code == 0
    assert "CHECK oracle PASS skipped" in out


@pytest.mark.parametrize("command", ["verify", "orbits"])
@pytest.mark.parametrize("flags", [["--n", "3", "--p", "2"], ["--n", "3"], ["--p", "3"]])
def test_spec_with_n_or_p_exits_2(command, flags, capsys):
    spec_path = os.path.join(DATA, "dual_numbers_q3.json")
    code, out, err = run([command, "--spec", spec_path] + flags, capsys)
    assert code == 2 and out == ""
    assert "--spec conflicts with --n/--p" in err


@pytest.mark.parametrize("command", ["verify", "orbits"])
def test_spec_with_k_exits_2(command, capsys):
    spec_path = os.path.join(DATA, "dual_numbers_q3.json")
    code, out, err = run([command, "--spec", spec_path, "--k", "2"], capsys)
    assert code == 2 and out == ""
    assert "--spec conflicts with --n/--p/--k" in err


def test_verify_detects_perturbed_table(monkeypatch, capsys):
    real = sc.build_table

    def tampered(*args, **kwargs):
        table = real(*args, **kwargs)
        table.values[0][0] = table.values[0][0] + 1
        return table

    monkeypatch.setattr(cli, "build_table", tampered)
    code, out, _ = run(["verify", "--n", "2", "--p", "2",
                        "--checks", "axioms"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_orbits_output(tmp_path):
    out = tmp_path / "orbits.txt"
    assert run(["orbits", "--n", "3", "--p", "2", "--space", "both",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "space J:" in text and "space J*:" in text
    assert "n_E=" in text and "residual=0" in text


def test_algebra_pipeline(tmp_path, capsys):
    spec_path = os.path.join(DATA, "dual_numbers_q3.json")
    out = tmp_path / "table.csv"
    code, outtext, _ = run(["algebra", "--spec", spec_path, "--out", str(out)], capsys)
    assert code == 0
    assert all("PASS" in l for l in outtext.strip().split("\n"))
    assert out.read_text().startswith("class,")


def test_table_both_reports_to_stderr(capsys):
    code, _, err = run(["table", "--n", "3", "--p", "3", "--mode", "both"], capsys)
    assert code == 0
    assert err == "CHECK oracle-equivalence PASS 0 mismatched entries of 225\n"


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_determinism_across_runs(tmp_path, n, p):
    outputs = []
    for i in range(3):
        out = tmp_path / f"t{i}.csv"
        diff = tmp_path / f"t{i}.diff"
        code = run(["table", "--n", str(n), "--p", str(p), "--mode", "both",
                    "--out", str(out), "--diff-out", str(diff)])
        assert code == 0
        outputs.append(out.read_bytes() + diff.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# sha256 of the stdout of each run: any change in a printed number changes it
PINNED_STDOUT = [
    (["verify", "--n", "2", "--p", "3", "--checks", "all"],
     "d27cfb93e99f7b05bd101c718ec4d5fc1d3acf56f52d3c302246ec232dde6a2c"),
    (["verify", "--n", "3", "--p", "2", "--checks", "all"],
     "7c8c260030cd1d4c80c2c3decf0833ed701347155a93d992463e8552845578eb"),
    (["verify", "--n", "3", "--p", "3", "--checks", "all"],
     "ac339e9f6155999582b4629d005ffe8593c78c4f4146d62169af722c1574e2cc"),
    (["verify", "--n", "2", "--p", "2", "--k", "2", "--checks", "all"],
     "de9c7b1b606eb6e3118c0f721cc0f1f6b0ee356b63f6a6994d71a41629d1d109"),
    (["verify", "--n", "4", "--p", "2", "--checks", "all"],
     "a4ea44473d11089358e081e7078195a7356bff1e92d7dab28cc6ee2ca32ce05e"),
    (["algebra", "--spec", os.path.join(DATA, "dual_numbers_q3.json")],
     "7473cdd7661f831f9f48291d6b26bed5e54deb9e58ab5a9e9e6b610b85319e63"),
    (["algebra", "--spec", os.path.join(DATA, "triangular_2_3.json")],
     "a1013abcaa670955b5a279dc40837d64f26d3f47c23c6cd78d538ce812e17cdd"),
    # four blocks: corner labels e={...} beyond the two-block bundled specs
    (["algebra", "--spec", ZIGZAG],
     "f08d4af9fd003d2e8ee8d462dae59581394767ab17b4b571a552bc806794fb73"),
    # orbit censuses, with sizes and singular/regular tags per orbit
    (["orbits", "--n", "4", "--p", "3", "--space", "both"],
     "8be0582cf019200b9bd0a1a2a2532f928a0d6b92f36d23cb2f8f621f26c1c8f5"),
    (["orbits", "--n", "3", "--p", "2", "--k", "2", "--space", "both"],
     "0a5c2145d7398be28886acd8b217ed2dd20f4d3ddc6e00fbc34c0e8c8e0c3fc0"),
    (["orbits", "--spec", os.path.join(DATA, "dual_numbers_q3.json"), "--space", "both"],
     "185611cbc5b5d7e82c1889ec38268ddf3186d8e3a112c79438ae7c7543cdfc9c"),
    # closed-form tables: with a size row (T(3,5), T(5,2), T(3,GF(4))), and
    # without one, |G| being above the default bound (T(4,5))
    (["table", "--n", "3", "--p", "5", "--mode", "closed"],
     "1c29f1249cae4dfef74fb9c2be4743fd2de499bb5c79eb532e3fb6910f8d39f3"),
    (["table", "--n", "5", "--p", "2", "--mode", "closed"],
     "b0c8a0296cdd3cd407cf94163c8a53cbf049ffea7e0ea7f7a1722c5fd026840c"),
    (["table", "--n", "4", "--p", "5", "--mode", "closed"],
     "1f2717f8545b4fc058d41f3d682fcf005e8342af399a95d181c3c50e1eee2a6b"),
    (["table", "--n", "3", "--p", "2", "--k", "2", "--mode", "closed"],
     "3cfb136aaeb4c20ca7c4fc280af75d25eb0b0812a690aa240d33a5471c35d81b"),
    (["table", "--n", "3", "--p", "3", "--mode", "closed", "--format", "json"],
     "8808515e4e20b40659ab797ca3781a6eb461b2dcd731f072778e287dfac0c24b"),
    # brute-force tables, re-indexed into the closed form's label order
    (["table", "--n", "3", "--p", "3", "--mode", "brute"],
     "956f2f9dc9c81aa8a024fb20a31742ce8d53870972711a2a0318424c6b6a028f"),
    (["table", "--n", "4", "--p", "2", "--mode", "brute", "--format", "json"],
     "1c105d1596c81e56fde3668e984263e581641384eec91f3aad5e6711028111e3"),
    (["table", "--n", "2", "--p", "2", "--k", "2", "--mode", "brute"],
     "61ff8654899fc8e49db875680107caacfe87d542b68c9539614885109f3af2c5"),
    (["verify", "--n", "3", "--p", "3", "--checks", "oracle"],
     "67ff61cfd77fbe74d6fdc45bd3ef39b419b15396e1b248dfb68d02ad50259021"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(os.path.basename(a) for a in argv)
                              for argv, _ in PINNED_STDOUT])
def test_stdout_matches_pinned_sha256(argv, digest, monkeypatch, capsys):
    monkeypatch.delenv("SUPCHAR_BOUND", raising=False)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bound_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("SUPCHAR_BOUND", "abc")
    code, _, err = run(["table", "--n", "2", "--p", "3"], capsys)
    assert code == 2
    assert "SUPCHAR_BOUND" in err


def test_negative_bound_exits_2(monkeypatch, capsys):
    for command in ("table", "orbits"):
        code, _, err = run([command, "--n", "2", "--p", "3", "--bound", "-1"], capsys)
        assert code == 2, command
        assert "--bound" in err and "-1" in err
    monkeypatch.setenv("SUPCHAR_BOUND", "-3")
    code, _, err = run(["table", "--n", "2", "--p", "3"], capsys)
    assert code == 2
    assert "SUPCHAR_BOUND" in err and "-3" in err


def test_zero_field_degree(capsys):
    code, _, err = run(["table", "--n", "2", "--p", "3", "--k", "0"], capsys)
    assert code == 2
    assert "degree" in err


def test_orbits_bound_exceeded(monkeypatch):
    assert run(["orbits", "--n", "4", "--p", "2", "--bound", "4"]) == 3
    monkeypatch.setenv("SUPCHAR_BOUND", "4")
    assert run(["orbits", "--n", "4", "--p", "2"]) == 3


def test_jobs_flag_removed():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--n", "2", "--p", "3", "--jobs", "0"])
    assert exc.value.code == 2


def _dual_numbers():
    with open(os.path.join(DATA, "dual_numbers_q3.json")) as fh:
        return json.load(fh)


def _without_blocks(data):
    del data["blocks"]
    return data


def _mul_index_out_of_range(data):
    data["mul"].append([5, 0, [[0, 1]]])
    return data


@pytest.mark.parametrize("mutate,field", [
    (_without_blocks, "blocks"),
    (_mul_index_out_of_range, "mul[4][0]"),
    (lambda data: [data], "top level"),
], ids=["missing-blocks", "mul-index-out-of-range", "top-level-array"])
def test_malformed_spec_file_exits_2(tmp_path, capsys, mutate, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(mutate(_dual_numbers())))
    for command in ("algebra", "verify", "orbits"):
        code, _, err = run([command, "--spec", str(path)], capsys)
        assert code == 2, command
        assert field in err, err
        assert "Traceback" not in err


def test_orbits_zero_radical_is_singular_on_both_spaces(capsys):
    # with J = 0 the unit kills the zero element and the zero form (the
    # annihilator criterion), so both one-point orbits are singular
    code, out, _ = run(["orbits", "--spec", SEMISIMPLE, "--space", "both"], capsys)
    assert code == 0
    reps = [l.strip() for l in out.splitlines() if "orbit rep" in l]
    assert reps == ["orbit rep [0] size 1 singular", "orbit rep [] size 1 singular"]


@pytest.mark.parametrize("argv", [
    ["table", "--n", "2", "--p", "3"],
    ["table", "--n", "2", "--p", "3", "--mode", "both"],
    ["verify", "--n", "2", "--p", "3", "--checks", "counts"],
    ["orbits", "--n", "2", "--p", "3"],
    ["algebra", "--spec", os.path.join(DATA, "dual_numbers_q3.json")],
], ids=["table", "table-both", "verify", "orbits", "algebra"])
@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys):
    path = str(tmp_path if target == "directory" else tmp_path / "no" / "such.csv")
    code, _, err = run(argv + ["--out", path], capsys)
    assert code == 2
    assert "invalid configuration" in err and "--out" in err and path in err
    assert "Traceback" not in err


def test_unwritable_diff_out_exits_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, err = run(["table", "--n", "2", "--p", "3", "--mode", "both",
                        "--out", str(out), "--diff-out", str(tmp_path)], capsys)
    assert code == 2
    assert "invalid configuration" in err and "--diff-out" in err


def test_verify_writes_report_to_out(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, stdout, _ = run(["verify", "--n", "2", "--p", "3", "--checks", "counts",
                           "--out", str(out)], capsys)
    assert code == 0 and stdout == ""
    assert out.read_text().startswith("CHECK counts PASS")

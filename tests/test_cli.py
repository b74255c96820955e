"""End-to-end tests of the command-line interface via main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tcis import formats
from tcis.boolfun import BooleanPermutation, derive_bijections
from tcis.cli import main
from tcis.codes import LinearCode
from tcis.gf2 import BitMatrix


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def jrun(capsys, argv):
    rc, out, err = run(capsys, argv + ["--json"])
    return rc, json.loads(out), err


def write_bin(tmp_path, name, rows):
    p = tmp_path / name
    formats.save(p, LinearCode(BitMatrix([int(r[::-1], 2) for r in rows], len(rows[0]))))
    return str(p)


@pytest.fixture
def buildup_path(data_dir):
    return str(data_dir / "buildup_6_2.code")


def test_cis_check_yes_text(capsys, buildup_path):
    rc, out, err = run(capsys, ["cis-check", buildup_path, "3"])
    assert rc == 0 and err == ""
    assert out.splitlines() == ["YES", "set 1: 1 2", "set 2: 3 4", "set 3: 5 6"]


def test_cis_check_yes_json(capsys, buildup_path):
    rc, obj, _ = jrun(capsys, ["cis-check", buildup_path, "3"])
    assert rc == 0
    assert list(obj) == ["n", "k", "d", "dual_d", "t", "cis", "partition", "certificate"]
    assert (obj["n"], obj["k"], obj["t"], obj["cis"]) == (6, 2, 3, True)
    assert obj["partition"] == [[1, 2], [3, 4], [5, 6]]
    assert obj["certificate"] is None and obj["d"] is None


def test_cis_check_no(capsys, tmp_path):
    path = write_bin(tmp_path, "zero_cols.code", ["100"])
    rc, out, _ = run(capsys, ["cis-check", path, "3"])
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "NO"
    assert lines[1] == "violating set S (2 columns, rank 0): 2 3"

    rc, obj, _ = jrun(capsys, ["cis-check", path, "3"])
    assert rc == 1
    assert obj["cis"] is False and obj["partition"] is None
    assert obj["certificate"] == {"columns": [2, 3], "rank": 0}


def test_report_text(capsys, buildup_path):
    rc, out, _ = run(capsys, ["report", buildup_path])
    assert rc == 0
    assert out.splitlines() == ["[6,2,4]", "dual distance: 2", "self-orthogonal: yes"]


def test_report_json(capsys, buildup_path):
    rc, obj, _ = jrun(capsys, ["report", buildup_path])
    assert rc == 0
    assert (obj["n"], obj["k"], obj["d"], obj["dual_d"]) == (6, 2, 4, 2)
    assert obj["self_orthogonal"] is True


def test_report_full_space_dual_is_inf(capsys, tmp_path):
    path = write_bin(tmp_path, "full.code", ["10", "01"])
    rc, obj, _ = jrun(capsys, ["report", path])
    assert rc == 0
    assert obj["d"] == 1 and obj["dual_d"] == "inf"


def test_cis_check_qc_spec(capsys, data_dir):
    rc, out, err = run(capsys, ["cis-check", str(data_dir / "qc_243_9.qc"), "27"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "YES" and len(lines) == 28
    assert lines[-1].startswith("set 27: ")


def test_report_qc_spec(capsys, data_dir):
    rc, out, _ = run(capsys, ["report", str(data_dir / "qc_243_9.qc")])
    assert rc == 0
    assert out.splitlines() == ["[243,9,118]", "dual distance: 3", "self-orthogonal: no"]


def test_derive_matches_library(capsys, data_dir, bk_24_8):
    rc, out, _ = run(capsys, ["derive", str(data_dir / "bk_24_8.code"), "3"])
    assert rc == 0
    fs = derive_bijections(bk_24_8, 3)
    want = []
    for i, f in enumerate(fs, 1):
        want.append(f"F_{i} matrix:")
        want.extend(f.matrix.to_strings())
    assert out.splitlines() == want

    rc, obj, _ = jrun(capsys, ["derive", str(data_dir / "bk_24_8.code"), "3"])
    assert rc == 0
    assert obj == {"t": 3, "matrices": [list(f.matrix.to_strings()) for f in fs]}


def test_cip_strength(capsys, tmp_path, bk_24_8):
    f1, f2 = derive_bijections(bk_24_8, 3)
    p1, p2 = tmp_path / "f1.perm", tmp_path / "f2.perm"
    formats.save(p1, f1)
    formats.save(p2, f2)
    rc, out, _ = run(capsys, ["cip", str(p1), str(p2)])
    assert rc == 0 and out == "strength: 7\n"

    rc, obj, _ = jrun(capsys, ["cip", str(p1), str(p2)])
    assert rc == 0 and obj == {"k": 8, "strength": 7}

    # the identity pair has strength 2 up to the Walsh cap, k = 12
    for k in (11, 12):
        big = tmp_path / f"k{k}.perm"
        formats.save(big, BooleanPermutation.identity(k))
        rc, out, _ = run(capsys, ["cip", str(big), str(big)])
        assert rc == 0 and out == "strength: 2\n"
    big = tmp_path / "k13.perm"
    formats.save(big, BooleanPermutation.identity(13))
    rc, out, err = run(capsys, ["cip", str(big), str(big)])
    assert rc == 3 and out == "" and err.startswith("infeasible:")


def test_classify_text_and_json(capsys):
    rc, out, _ = run(capsys, ["classify", "2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "d=3", "d=4", "total"]
    assert lines[1].split() == ["6", "2", "(0+2)", "1", "(1+0)", "3"]

    rc, obj, _ = jrun(capsys, ["classify", "2"])
    assert rc == 0
    assert obj == {
        "k": 2,
        "t": 3,
        "total": 3,
        "by_d": {"3": {"so": 0, "nso": 2}, "4": {"so": 1, "nso": 0}},
    }


def test_classify_out_dir(capsys, tmp_path):
    outdir = tmp_path / "reps"
    rc, _, _ = run(capsys, ["classify", "2", "--out", str(outdir)])
    assert rc == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["code_1.code", "code_2.code", "code_3.code", "table.txt"]
    for name in files[:3]:
        code = formats.load(outdir / name)
        assert (code.n, code.k) == (6, 2)
    assert "total" in (outdir / "table.txt").read_text()


def test_classify_guard_exit(capsys):
    rc, out, err = run(capsys, ["classify", "5"])
    assert rc == 3 and out == "" and err.startswith("infeasible:")


def test_classify_past_t3(capsys):
    rc, obj, _ = jrun(capsys, ["classify", "3", "4"])
    assert rc == 0
    assert (obj["k"], obj["t"], obj["total"]) == (3, 4, 57)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["classify", "-1"], "error: k must be at least 1"),
        (["classify", "0"], "error: k must be at least 1"),
        (["masscheck", "2", "0"], "error: t must be at least 2"),
        (["masscheck", "0", "2"], "error: k must be at least 1"),
        (["masscheck", "2", "1"], "error: t must be at least 2"),
    ],
)
def test_domain_errors_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.strip() == message


def test_unreadable_paths_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.code"
    for path, reason in ((tmp_path, "Is a directory"), (missing, "No such file or directory")):
        rc, out, err = run(capsys, ["cis-check", str(path), "3"])
        assert rc == 2 and out == ""
        assert err.strip() == f"error: cannot read {str(path)!r}: {reason}"


def test_unwritable_out_exit_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc, out, err = run(capsys, ["classify", "1", "--out", str(blocker)])
    assert rc == 2 and out == ""
    assert err.strip() == f"error: cannot write {str(blocker)!r}: File exists"


def test_bounds(capsys):
    rc, out, _ = run(capsys, ["bounds", "1", "3"])
    assert rc == 0
    assert out.splitlines() == [
        "lower: 3",
        "upper: 3",
        "  singleton: 3",
        "  plotkin: 3",
        "gv rate delta: 0.061490",
    ]

    rc, obj, _ = jrun(capsys, ["bounds", "8", "3"])
    assert rc == 0
    assert obj["lower"] == 3
    assert obj["singleton_upper"] == 16
    assert obj["plotkin_upper"] == 12
    assert obj["upper"] == 12
    assert 0.0 < obj["gv_rate_delta"] < 0.5


def test_masscheck(capsys):
    rc, out, _ = run(capsys, ["masscheck", "2", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "systematic codes |GL(2,2)|^1: 6",
        "classes: 2",
        "orbit sizes: 4 2",
        "consistent: yes",
    ]

    rc, obj, _ = jrun(capsys, ["masscheck", "2", "3"])
    assert rc == 0
    assert obj == {
        "k": 2,
        "t": 3,
        "group_power": 36,
        "classes": 3,
        "class_sizes": [24, 8, 4],
        "consistent": True,
    }


# each refusal names the limit it hits
MASSCHECK_REFUSALS = {
    (5, 3): "3471819456 multisets",
    (2, 8): "length 16 exceeds",
    (6, 2): "27998208 multisets",
}


@pytest.mark.parametrize("k,t", list(MASSCHECK_REFUSALS))
def test_masscheck_refuses_at_once(capsys, k, t):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["masscheck", str(k), str(t)])
    assert time.perf_counter() - start < 1.0
    assert rc == 3 and out == "" and err.startswith("infeasible:")
    assert MASSCHECK_REFUSALS[k, t] in err


@pytest.mark.parametrize(
    "k,t,classes,total",
    [(4, 3, 361, 406_425_600), (5, 2, 195, 9_999_360)],
)
def test_masscheck_long_running_sizes(capsys, k, t, classes, total):
    rc, obj, _ = jrun(capsys, ["masscheck", str(k), str(t)])
    assert rc == 0
    assert (obj["classes"], obj["group_power"]) == (classes, total)
    assert sum(obj["class_sizes"]) == total


def masscheck_digest(capsys, sizes):
    """SHA-256 of masscheck's exit code, stdout and stderr, as text and
    under --json, at each (k, t)."""
    runs = [
        (k, t, *run(capsys, ["masscheck", str(k), str(t), *extra]))
        for k, t in sizes
        for extra in ([], ["--json"])
    ]
    return hashlib.sha256(repr(runs).encode()).hexdigest()


# SHA-256 of masscheck over k = 1..5, t = 2..15, recorded with one
# canonical form per Cat class; these two sizes are pinned on their own
MASSCHECK_DIGESTS = {
    (4, 3): "0b72efffcb643d392ad559befc39bdbd626bd75f1e64b62c288176edf7ac2548",
    (5, 2): "e3d4df0a78b5e7833dd0828d42d98d7b652f906ef42279fdcaa545f34d6a2734",
}


def test_masscheck_pinned(capsys):
    # (3, 5) is pinned by test_classify_past_t3, (5, 3) by
    # test_masscheck_refuses_at_once
    sizes = [
        (k, t)
        for k in range(1, 6)
        for t in range(2, 16)
        if (k, t) not in {(4, 3), (5, 2), (3, 5), (5, 3)}
    ]
    assert masscheck_digest(capsys, sizes) == (
        "63375fa45576ca81a66703f8a21b1db57b808c26097e78adf35a36450e1efe54"
    )


@pytest.mark.parametrize("k,t", [(4, 3), (5, 2)])
def test_masscheck_pinned_long_running(capsys, k, t):
    assert masscheck_digest(capsys, [(k, t)]) == MASSCHECK_DIGESTS[k, t]


def test_z4_report(capsys, data_dir):
    rc, out, _ = run(capsys, ["z4", "report", str(data_dir / "octacode.z4")])
    assert rc == 0
    assert out.splitlines() == [
        "z4 [8,4] free: yes",
        "lee distance: 6",
        "gray image: (16, 256, 6)",
    ]

    rc, obj, _ = jrun(capsys, ["z4", "report", str(data_dir / "z4_24_6.z4")])
    assert rc == 0
    assert obj["lee_distance"] == 18
    assert obj["gray_image"] == {"n": 48, "size": 4096, "d": 18}


def test_z4_cis_check(capsys, data_dir):
    rc, obj, _ = jrun(capsys, ["z4", "cis-check", str(data_dir / "octacode.z4"), "2"])
    assert rc == 0
    assert obj["cis"] is True
    assert obj["partition"] == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_z4_derive(capsys, data_dir):
    rc, obj, _ = jrun(capsys, ["z4", "derive", str(data_dir / "octacode.z4"), "2"])
    assert rc == 0
    assert obj["t"] == 2
    assert len(obj["perms"]) == 1
    assert sorted(obj["perms"][0]) == list(range(256))

    rc, out, _ = run(capsys, ["z4", "derive", str(data_dir / "octacode.z4"), "2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "F_1:"
    assert lines[1] == "perm 8"
    assert len(lines) == 2 + 256


def test_parse_failures_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("bin 2 2\n10\n")
    rc, out, err = run(capsys, ["cis-check", str(bad), "2"])
    assert rc == 2 and out == "" and err.startswith("error:")

    rc, _, err = run(capsys, ["report", str(tmp_path / "missing.code")])
    assert rc == 2 and err.startswith("error:")

    accented = tmp_path / "accented.code"
    accented.write_bytes("bin 2 1\n# \u00e9\n11\n".encode())
    rc, out, err = run(capsys, ["cis-check", str(accented), "2"])
    assert rc == 2 and out == "" and err.startswith("error:")
    assert str(accented) in err and "codec" not in err


def test_wrong_file_kind_exit_2(capsys, data_dir, tmp_path):
    rc, _, err = run(capsys, ["cis-check", str(data_dir / "octacode.z4"), "2"])
    assert rc == 2 and "expected a 'bin' code file" in err

    rc, _, err = run(capsys, ["z4", "report", str(data_dir / "buildup_6_2.code")])
    assert rc == 2 and "expected a 'z4' code file" in err


def test_parser_reused_across_calls(capsys, buildup_path, tmp_path):
    # one process, one parser: a run of subcommands and a bad argument in a
    # row gives the outputs and exit codes of a fresh process per call
    zero = write_bin(tmp_path, "zero_cols.code", ["100"])
    argvs = [
        ["report", buildup_path],
        ["cis-check", zero, "3", "--json"],
        ["cis-check", buildup_path, "three"],
        ["cis-check", buildup_path, "3"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    for argv, want_rc in zip(argvs, (0, 1, 2, 0)):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "tcis.cli", *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert rc == want_rc

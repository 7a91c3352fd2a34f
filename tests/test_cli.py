"""End-to-end checks of the command-line surface: argument handling, exit
codes, and that the emitted artifacts agree with the library calls they
wrap."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kuengine import cli, margolis
from kuengine.monomial import q_degree
from kuengine.render import ChartDocument


def run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_groups_window_golden(capsys):
    rc, out, _ = run(["groups", "--prime", "2", "--from", "80", "--to", "84"], capsys)
    assert rc == 0
    rows = {r["degree"]: r for r in json.loads(out)}
    assert sorted(rows) == [80, 81, 82, 83, 84]
    assert rows[82]["group"] == [8, 2, 2, 2, 2, 2, 2]
    assert rows[82]["pretty"].startswith("Z/8 + Z/2")
    assert "free" not in rows[82]

    rc, out, _ = run(["groups", "--prime", "2", "--window", "7:7"], capsys)
    assert rc == 0
    assert json.loads(out) == [{"degree": 7, "group": [], "pretty": "0"}]


def test_groups_free_column_tracks_the_degree_shift(capsys):
    # the trivial Z/p summands sit 2p above the free generators they shadow,
    # and homology mode reads everything 2p higher still
    rc, out, _ = run(
        ["groups", "--prime", "2", "--from", "83", "--to", "83", "--include-free"],
        capsys,
    )
    assert rc == 0
    (coh,) = json.loads(out)
    assert coh["free"] == 245

    rc, out, _ = run(
        ["groups", "--prime", "2", "--from", "79", "--to", "79", "--homology",
         "--include-free"],
        capsys,
    )
    assert rc == 0
    (hom,) = json.loads(out)
    assert hom["free"] == 245
    assert hom["group"] == coh["group"]


def test_chart_json_writes_atomically_and_roundtrips(tmp_path, capsys):
    target = tmp_path / "a1.json"
    rc, out, _ = run(
        ["chart", "A:1", "--prime", "2", "--out", str(target)], capsys
    )
    assert rc == 0
    assert out == ""  # --out redirects everything
    assert os.listdir(tmp_path) == ["a1.json"]  # no .tmp debris
    doc = ChartDocument.from_json(target.read_text())
    assert doc.prime == 2 and doc.source == "closed-form"
    assert [(d.degree, d.filtration) for d in doc.dots] == [(8, 0), (8, 1), (10, 0)]
    assert doc.to_json() + "\n" == target.read_text()


def test_chart_emission_is_deterministic(capsys):
    rc1, svg1, _ = run(["chart", "B:3", "--prime", "2", "--format", "svg"], capsys)
    rc2, svg2, _ = run(["chart", "B:3", "--prime", "2", "--format", "svg"], capsys)
    assert rc1 == rc2 == 0
    assert svg1 == svg2
    assert svg1.startswith("<svg")


def test_chart_selector_validation(capsys):
    for argv in (
        ["chart"],  # no selector, no --einfty
        ["chart", "Q:3"],
        ["chart", "A:5", "B:4"],  # overlay blocks must agree
        ["chart", "A:5", "S:5:8"],
        ["chart", "A:1", "B:1", "S:1:2"],
        ["chart", "A:1", "--einfty", "--window", "0:40"],
        ["chart", "--einfty"],  # needs a window
        ["chart", "full-even"],  # unbounded without a window
        ["chart", "A:x", "B:x"],  # the overlay parses its blocks like one selector
        ["chart", "A:", "B:"],
        ["chart", "A:0", "B:0", "--prime", "2"],  # B_0 does not exist at p = 2
        ["chart", "A:-1", "B:-1"],
    ):
        rc, _, err = run(argv, capsys)
        assert rc == 2, argv
        assert err.startswith("kuengine: "), argv


def test_chart_overlay_has_dashed_dots(capsys):
    rc, out, _ = run(
        ["chart", "A:5", "B:5", "--prime", "2", "--window", "68:136"], capsys
    )
    assert rc == 0
    doc = ChartDocument.from_json(out)
    flags = {d.overlay for d in doc.dots}
    assert flags == {True, False}


def test_audit_exit_codes(capsys):
    rc, out, _ = run(
        ["audit", "--which", "theorem61", "--prime", "3", "--max", "60"], capsys
    )
    assert rc == 0
    assert json.loads(out)["ok"] is True

    # the odd-primary regular-representation splitting has no p = 2 analogue
    rc, _, err = run(["audit", "--which", "theorem61", "--prime", "2"], capsys)
    assert rc == 2
    assert "kuengine:" in err


@pytest.mark.parametrize("prime, top", ((2, 1), (3, 0)))
def test_duality_below_k0_is_a_usage_error(prime, top, capsys):
    # B_k starts at k0 (2 at p = 2, else 1): a smaller --max checks nothing
    argv = ["audit", "--which", "duality", "--prime", str(prime), "--max", str(top)]
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "duality" in err


@pytest.mark.parametrize("cap, code", (("2", 2), ("14", 2), ("15", 0)))
def test_einfty_cap_below_the_top_filtration_is_a_usage_error(cap, code, capsys):
    # the chart's top filtration through n = 60 at p = 2 is 15: a lower cap
    # would cut E-infinity short of the chart and read as a failed audit
    argv = ["audit", "--which", "einfty", "--prime", "2", "--max", "60", "--max-s", cap]
    rc, out, err = run(argv, capsys)
    assert rc == code
    if code:
        assert out == ""
        assert "smallest accepted cap is 15" in err
    else:
        assert json.loads(out)["ok"] is True


def test_matching_over_an_empty_window_is_a_usage_error(capsys):
    argv = ["audit", "--which", "matching", "--prime", "2", "--max", "0", "--max-s", "0"]
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert "holds no tower" in err


@pytest.mark.parametrize("prime", (2, 3))
def test_duality_at_max_two_checks_something(prime, capsys):
    argv = ["audit", "--which", "duality", "--prime", str(prime), "--max", "2"]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checked"] > 0


@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_ps_audit_below_the_q_degree_checks_every_degree(prime, capsys):
    # S is R suspended by |Q|: under that degree it is empty, not an error
    q = q_degree(prime)
    for top in (0, q - 1):
        argv = ["audit", "--which", "ps", "--prime", str(prime), "--max", str(top)]
        rc, out, _ = run(argv, capsys)
        assert rc == 0, argv
        report = json.loads(out)
        assert report["ok"] is True
        assert report["checked"] == top + 1


@pytest.mark.parametrize(
    "argv, counted",
    (
        (
            ["groups", "--prime", "2", "--window", "0:40"],
            lambda metrics: metrics["chart.Chart.dots_at.calls"] > 0,
        ),
        (
            # the audit table looks the audit up on its module when it runs;
            # an entry holding the function object would bypass the wrapper
            ["audit", "--which", "einfty", "--prime", "2", "--max", "60"],
            lambda metrics: metrics["adams.einfty_audit.calls"] == 1,
        ),
    ),
    ids=("groups", "einfty"),
)
def test_traced_run_prints_the_untraced_output(argv, counted, tmp_path):
    # the benchmark's layer tracer wraps names in the package; a rename
    # would make it fail instead of tracing
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "kuengine.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"),
         str(tmp_path / "stats.json"), *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert counted(stats["metrics"])


@pytest.mark.parametrize(
    "which, module, name",
    (
        ("bockstein", "k1", "bockstein_audit"),
        ("matching", "adams", "matching_audit"),
        ("einfty", "adams", "einfty_audit"),
        ("duality", "modules", "duality_audit"),
        ("theorem61", "k1", "theorem61_audit"),
        ("margolis", "margolis", "margolis_audit"),
        ("ext", "adams", "ext_audit"),
        ("ps", "margolis", "ps_audit"),
    ),
)
def test_audit_failure_exits_one(which, module, name, monkeypatch, capsys):
    monkeypatch.setattr(getattr(cli, module), name, lambda *args: {"ok": False})
    rc, out, _ = run(["audit", "--which", which], capsys)
    assert rc == 1
    assert json.loads(out) == {"ok": False}


def test_ps_formats_agree_with_the_series(capsys):
    want = list(margolis.free_part_ps(2, 12).c)
    rc, out, _ = run(["ps", "--prime", "2", "--max", "12"], capsys)
    assert rc == 0
    assert json.loads(out) == want

    rc, out, _ = run(["ps", "--prime", "2", "--max", "12", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,count"
    assert [int(l.split(",")[1]) for l in lines[1:]] == want


def test_usage_errors(capsys):
    for argv in (
        ["groups", "--prime", "6", "--from", "0", "--to", "4"],
        ["groups", "--prime", "2", "--from", "10"],  # --to missing
        ["groups", "--prime", "2", "--window", "9:3"],  # empty window
        ["groups", "--prime", "2", "--window", "abc"],
        ["groups", "--prime", "2"],  # no window at all
        ["groups", "--prime", "2", "--window=-5:3"],  # degrees start at 0
        ["groups", "--prime", "2", "--window=-5:3", "--include-free"],
        ["groups", "--prime", "2", "--window=-5:3", "--homology"],
        ["groups", "--prime", "2", "--window=-5:3", "--homology", "--include-free"],
    ):
        rc, _, err = run(argv, capsys)
        assert rc == 2, argv
        assert err.startswith("kuengine: "), argv


@pytest.mark.parametrize("prime", ("0", "1", "4", "6", "9", "-3"))
def test_a_prime_that_is_not_prime_is_a_usage_error(prime, capsys):
    for argv in (["groups", "--window", "0:4"], ["audit", "--which", "ext"], ["ps"]):
        rc, out, err = run([*argv, "--prime", prime], capsys)
        assert rc == 2 and out == "", argv
        assert err == f"kuengine: --prime {prime} is not a prime\n", argv


@pytest.mark.parametrize(
    "argv",
    (
        ["groups", "--prime", "11", "--window", "0:120"],
        ["chart", "A:3", "--prime", "11"],
        ["ps", "--prime", "11", "--max", "120"],
        ["audit", "--which", "ext", "--prime", "11", "--max-degree", "120", "--max-s", "3"],
        ["audit", "--which", "margolis", "--prime", "13", "--max", "200"],
        ["audit", "--which", "ps", "--prime", "13", "--max", "200"],
    ),
)
def test_primes_past_seven_run(argv, capsys):
    rc, out, _ = run(argv, capsys)
    assert rc == 0 and out


# sha256 of stdout: these reports slice one assembled chart per command,
# and any refactor of that path must leave their bytes as they are
PINNED_STDOUT = {
    "groups --prime 2 --window 0:200 --include-free":
        "c1615a66b603db82cedfb6ed158156fe6b094ab4c37355e6ac5cd6113c45e002",
    "groups --prime 3 --window 0:200 --homology":
        "a77d72a1e3925147fba089f3fe6801e6ad1e227d9c5a67b767a1681353a5859b",
    "groups --prime 2 --window 0:3 --homology --include-free":
        "5486fa84cd17ff3d8be80069833a43f83d5d9061716d632c0f49f1abb748323c",
    "audit --which bockstein --prime 3 --max 200":
        "de804d5eef11a9f25428c569526396e99d67a80be971de608529648ab6dfaac1",
    "audit --which theorem61 --prime 3 --max 200":
        "de804d5eef11a9f25428c569526396e99d67a80be971de608529648ab6dfaac1",
    "audit --which theorem61 --prime 5 --max 200":
        "8a4d23c2d5c534b2bfe2c2193b6119aa6ae5a1e6ec1d4fc88028a237fb33f1c7",
    "chart full-even --prime 2 --window 0:120":
        "04be245b1a5979d4831df6abae1309b81cd1b02277929b493ded15bdb5b78be6",
    "chart full-odd --prime 3 --window 0:120":
        "07a875edb0109f72dc0a8edfcf895003400cece57321fbacf6aa6538dca80497",
    # the walks over TP_{p-1}[z_j] (x) Lambda_{j+1}: the E2 MAIN towers
    # (einfty, matching, the einfty chart) and the odd-part multipliers
    "audit --which einfty --prime 3 --max 150":
        "65ddd5fe11566e3af9072c118150328cdd89c988c9ab5cee0ef11a427a3a4f32",
    "audit --which matching --prime 3 --max 120":
        "79f56aa54e872bd142e903f86eb70a4bbaddec888091669dd6bf20793c9b9637",
    # the tower pairing the replay and the matching audit share, at p = 2, 5
    "audit --which matching --prime 2":
        "51df3c5a1e176c905c07d6a1347c98424e4c6fab9cc72e3b89e6d0d40070171b",
    "audit --which matching --prime 5 --max 400 --max-s 20":
        "c8e2bfe2a01a9bcedd6aab7270c3e6e33f7b4c076e022a132c5a529870ef996e",
    "audit --which einfty --prime 5 --max 400":
        "de801b683c632cea00f1e8a274d8cc340eea6dec22acb72ead3b5994275e956c",
    # the h0 block: its coset counts, its differentials, at p = 2, 5, 7; the
    # last window holds one F1 source and one F1 target and nothing else
    "audit --which einfty --prime 2":
        "13483e2c4670430c8df3587f64fedd97c25f967bbd0c2f226689b35d5cadcac2",
    "audit --which einfty --prime 5 --max 200":
        "92e66d99f8ce820a0ae2757eb1d5d999f4acb407822fcd4680a2e880a82d332a",
    "audit --which matching --prime 5 --max 200 --max-s 10":
        "bd5f59ad765a858bba3cbd5f7f43fb50684e00a56800cea41f825b28fded32f4",
    "audit --which einfty --prime 7 --max 400":
        "839f74ed748a36d32a1ca6df07c6a43f8e849b1b66a2c370b2e2219e2972d0a2",
    "audit --which matching --prime 7 --max 400 --max-s 12":
        "f3524e0e4bfbeb334de33ccffbc8dbf65460535a02f63dd945c9919e8c4cb5dd",
    "audit --which matching --prime 2 --max 5 --max-s 0":
        "d7d40fdcd7fa68ebda259082fadce353105160617293078ba3184ce65a5a5646",
    "chart --einfty --prime 3 --window 0:100 --max-s 12":
        "6c76efc7a333ea09d17324d4335e602e07981645888770aaba0dea6ff83f8c11",
    "chart full-odd --prime 2 --window 0:160":
        "f2bdf382416e6197465fcef8bb59ed34561f5ebf20ab5fa7f76423dba6006d03",
    "chart full-odd --prime 5 --window 0:400":
        "89964cecbe9dae80aa96cfe80718d18ff8c3707ec7fae455a4c4e1560db78a05",
    # the E1-module oracles: Margolis homology, the free-part subtraction
    # against the explicit model, and brute-force Ext at a dense prime
    "audit --which margolis --prime 2 --max 60":
        "ee020425f1d70bd498d8b8f03c1abb8b7e10304e5296670f44ef8c9a21240764",
    "audit --which margolis --prime 3 --max 60":
        "3846b95b0b300f23d0a359f0dc258088f4526be397db1b50a59c87cecf57b586",
    "audit --which margolis --prime 5 --max 100":
        "13f2bbd0e41a0a6696052f420a7cf1653164f2378ecf4aa277828aa5deee72d9",
    "audit --which ps --prime 2 --max 100":
        "5d17048bc3d4ab5aa15a63b6f102c5731240c7ed9e1205c01c9d2f40767b56b7",
    "audit --which ps --prime 3 --max 150":
        "142daf08f601be5baeec2765aaef0b0467cc36198357964cc58d38b85db24614",
    "audit --which ext --prime 7 --max-degree 60 --max-s 3":
        "8e3e49b07acc7a6a575625802e346008a03f536570730335c380aa498e596b07",
    # no bound flag: the defaults the audit and series tables hold
    "audit --which bockstein --prime 3":
        "de804d5eef11a9f25428c569526396e99d67a80be971de608529648ab6dfaac1",
    "audit --which matching --prime 3":
        "79f56aa54e872bd142e903f86eb70a4bbaddec888091669dd6bf20793c9b9637",
    "audit --which einfty --prime 3":
        "9974645ee86e0fe4a09e6d48e58f265eb5178cc82aedd3c95baf1eb86f73b5f2",
    "audit --which duality --prime 3":
        "a9280efc17a4b7319b32c68ae141db618984c210f6dd93298198ecdbdd252722",
    "audit --which theorem61 --prime 3":
        "de804d5eef11a9f25428c569526396e99d67a80be971de608529648ab6dfaac1",
    "audit --which margolis --prime 3":
        "3846b95b0b300f23d0a359f0dc258088f4526be397db1b50a59c87cecf57b586",
    "audit --which ext --prime 3":
        "8d1111795cb8c8d1dd2db9f3f5fd67713684e573620b8e66186177636ee57652",
    "audit --which ps --prime 3":
        "2884f19137e06288a4f5897f4cc1c2b625b2ff859066a8856e62177f6e149a21",
    "ps --which free --prime 3":
        "ca4b53776199053a93a370f65bdd1b6285948ede4215fbe21ea8232ea9397007",
    "ps --which free-total --prime 3":
        "30793d93621469d286364bf5a0a592384e7e6541933b297eed949934276cf929",
    "ps --which trivial --prime 3":
        "69a6a3ddd38dcb17240d3cae1556d3c51d24b02ea2f6e1339cd19b28156a38be",
    "ps --which k1 --prime 3":
        "1cad8d4d96514971336a9df0b5fbefd7c1d66d3a2dd7425af5dd973c91f85a89",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_reports_are_pinned(command, capsys):
    rc, out, _ = run(command.split(), capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_bad_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ["audit", "--which", "ext", "--max-degree", "-1"],
        ["audit", "--which", "ext", "--max-s", "-1"],
        ["audit", "--which", "einfty", "--max", "-3"],
        ["audit", "--which", "margolis", "--max", "-1"],
        ["ps", "--max", "-1"],
        ["chart", "--einfty", "--window", "0:20", "--max-s", "-1"],
    ),
)
def test_negative_bounds_are_usage_errors(argv, capsys):
    # exit 1 would read as a failed audit; a bad bound is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_zero_bounds_are_accepted(capsys):
    rc, out, _ = run(["ps", "--prime", "2", "--max", "0"], capsys)
    assert rc == 0
    assert json.loads(out) == list(margolis.free_part_ps(2, 0).c)


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "a1.json"
    target.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    rc, out, err = run(["chart", "A:1", "--prime", "2", "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err == f"kuengine: cannot write {target}: disk full\n"
    assert os.listdir(tmp_path) == ["a1.json"]
    assert target.read_text() == "previous\n"


def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(["chart", "A:3", "--prime", "2", "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"kuengine: cannot write {target}: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []  # no .tmp debris, no directory made


def test_emit_keeps_the_umask_file_mode(tmp_path, capsys):
    target = tmp_path / "a1.json"
    old = os.umask(0o022)
    try:
        rc, _, _ = run(["chart", "A:1", "--prime", "2", "--out", str(target)], capsys)
    finally:
        os.umask(old)
    assert rc == 0
    assert target.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize(
    "argv",
    (
        ["audit", "--which", "ext", "--prime", "2", "--max", "5"],
        *(
            ["audit", "--which", which, "--max-degree", "5"]
            for which in cli.AUDITS
            if which != "ext"
        ),
        *(
            ["audit", "--which", which, "--max-s", "3"]
            for which in ("bockstein", "duality", "theorem61", "margolis", "ps")
        ),
        ["chart", "A:2", "--prime", "2", "--max-s", "1"],
        ["groups", "--prime", "2", "--window", "0:3", "--from", "0", "--to", "3"],
        ["groups", "--prime", "2", "--window", "0:3", "--from", "0"],
        ["groups", "--prime", "2", "--window", "0:3", "--to", "3"],
    ),
)
def test_a_flag_the_mode_does_not_read_is_a_usage_error(argv, capsys):
    # a silently dropped bound would report "ok" on a window nobody asked for
    rc, out, err = run(argv, capsys)
    assert rc == 2, argv
    assert out == ""
    assert err.startswith("kuengine: "), argv

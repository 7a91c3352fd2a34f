"""End-to-end checks of the command-line surface: argument handling, exit
codes, and that the emitted artifacts agree with the library calls they
wrap."""

import gc
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kuengine
from kuengine import cli, margolis, model
from kuengine.monomial import q_degree
from test_render import doc_from_json


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
    doc = doc_from_json(target.read_text())
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
    doc = doc_from_json(out)
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


def test_einfty_over_a_window_with_no_tower_is_a_usage_error(capsys):
    argv = ["audit", "--which", "einfty", "--prime", "3", "--max", "2", "--max-s", "0"]
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
    # qR starts at |q|: under that degree it is empty, not an error
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


def test_the_package_has_no_runtime_dependency(tmp_path):
    # dependencies = []: importing every module of the package loads nothing
    # outside it but the standard library.  A fresh interpreter takes its
    # snapshot after site's .pth imports, so they are not counted.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import importlib, json, pkgutil, sys; before = set(sys.modules); "
        "import kuengine; "
        "[importlib.import_module(f'kuengine.{m.name}') "
        "for m in pkgutil.iter_modules(kuengine.__path__)]; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout)
    package = {f"kuengine.{m.name}" for m in pkgutil.iter_modules(kuengine.__path__)}
    assert {m for m in new if m.startswith("kuengine.")} == package
    tops = {m.split(".")[0] for m in new} - {"kuengine"}
    assert sorted(tops - set(sys.stdlib_module_names)) == []


# The oracle and the closed forms it checks are two modules: a fresh import of
# either loads only its own layer, and no closed form is defined in margolis.
LAYERS = {
    "margolis": {"margolis", "linalg", "monomial", "series"},
    "model": {"model", "monomial", "series"},
}


def test_the_oracle_and_the_model_import_only_their_layers(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name, layer in LAYERS.items():
        code = (
            "import json, sys; before = set(sys.modules); "
            f"import kuengine.{name}; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        loaded = {m for m in json.loads(proc.stdout) if m.startswith("kuengine.")}
        assert loaded == {f"kuengine.{m}" for m in layer}, name
    closed = [n for n, v in vars(model).items() if getattr(v, "__module__", None) == model.__name__]
    assert "assemble_T" in closed and "free_part_ps" in closed
    assert [n for n in closed if hasattr(margolis, n)] == []


# Each command imports only the modules it runs: a fresh interpreter's
# kuengine.* modules at exit, for one command of every dispatch branch at a
# tiny window.  An eager import fails here instead of slowing every command.
GROUPS = {"chart", "linalg", "modules", "monomial", "series"}
EINFTY = GROUPS | {"adams", "padic"}
CHART = EINFTY | {"render"}
SERIES_ONLY = {"model", "monomial", "series"}
MODEL_AUDIT = SERIES_ONLY | {"linalg", "margolis"}
K1 = GROUPS | {"k1", "padic"}
FRESH_IMPORTS = {
    "--help": set(),
    "groups --prime 3 --window 0:6": GROUPS,
    "groups --prime 2 --window 0:3 --homology --include-free": GROUPS | {"model"},
    "audit --which bockstein --prime 2 --max 20": K1,
    "audit --which matching --prime 2 --max 12 --max-s 6": EINFTY,
    "audit --which einfty --prime 2 --max 12": EINFTY,
    "audit --which duality --prime 3 --max 2": GROUPS,
    "audit --which theorem61 --prime 3 --max 20": K1,
    "audit --which margolis --prime 2 --max 12": MODEL_AUDIT,
    "audit --which ext --prime 2 --max-degree 8 --max-s 2": EINFTY | {"margolis", "model"},
    "audit --which ps --prime 2 --max 12": MODEL_AUDIT,
    **{
        f"ps --which {which} --prime 3 --max 12 --format {fmt}":
            K1 if which == "k1" else SERIES_ONLY
        for which in ("free", "free-total", "trivial", "k1")
        for fmt in ("json", "csv")
    },
    "chart A:3 --prime 3": CHART,
    "chart B:2 --prime 2 --format svg --out {out}": CHART,
    "chart S:1:2 --prime 2 --format tikz": CHART,
    "chart full-even --prime 2 --window 0:20 --format svg": CHART,
    "chart full-odd --prime 3 --window 0:30 --format tikz": CHART,
    "chart A:2 B:2 --prime 2 --window 8:40": CHART,
    "chart --einfty --prime 2 --window 0:12 --max-s 6 --out {out}": CHART,
}

# runs the CLI as `python -m kuengine.cli` does, then reports on stderr the
# modules new since a snapshot taken after site, whether main returned or exited
FRESH_RUN = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import json, runpy\n"
    "try:\n"
    "    runpy.run_module('kuengine.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
)
# stdlib modules no command needs: dataclasses pulls in inspect, ast, dis and
# tokenize, which every fresh process would then load
NEVER_IMPORTED = {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", list(FRESH_IMPORTS))
def test_a_fresh_process_imports_only_what_it_runs(command, tmp_path, monkeypatch, capsys):
    # the in-process run sees every module earlier tests imported, so a name
    # that resolves only through an earlier import fails in the fresh run
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width
    root = Path(__file__).resolve().parent.parent
    fresh_out, here_out = tmp_path / "fresh.out", tmp_path / "here.out"
    argv = command.format(out=fresh_out).split()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    *_, modules_line = proc.stderr.splitlines()
    new = set(json.loads(modules_line))
    loaded = {m for m in new if m.startswith("kuengine.")}
    assert loaded == {f"kuengine.{m}" for m in FRESH_IMPORTS[command]}
    assert not new & NEVER_IMPORTED

    try:
        rc = cli.main(command.format(out=here_out).split())
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr().out
    assert proc.returncode == rc == 0, proc.stderr
    assert proc.stdout == out
    if "{out}" in command:
        assert out == ""
        assert fresh_out.read_bytes() == here_out.read_bytes()


@pytest.mark.parametrize(
    "argv, module, name",
    (
        (["chart", "A:1", "--prime", "2", "--format", "svg"], "render", "render_svg"),
        (["chart", "A:1", "--prime", "2"], "render", "document_from_chart"),
        (["audit", "--which", "einfty", "--prime", "2", "--max", "12"], "adams", "einfty_audit"),
        (["groups", "--prime", "2", "--window", "0:6"], "modules", "full_chart"),
    ),
)
def test_a_wrapper_on_the_module_is_what_the_command_calls(argv, module, name, monkeypatch, capsys):
    # the benchmark's tracer wraps each function on its module after
    # importing the CLI, and reads the render names back off cli
    target = importlib.import_module(f"kuengine.{module}")
    inner = getattr(target, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapper)
    if module == "render":
        assert getattr(cli, name) is wrapper
    rc, out, _ = run(argv, capsys)
    assert rc == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "which, module, name",
    (
        ("bockstein", "k1", "bockstein_audit"),
        ("matching", "adams", "matching_audit"),
        ("einfty", "adams", "einfty_audit"),
        ("duality", "modules", "duality_audit"),
        ("theorem61", "k1", "theorem61_audit"),
        # the two model audits are named for the margolis oracle they check against
        pytest.param("margolis", "model", "margolis_audit", id="margolis-margolis-margolis_audit"),
        ("ext", "adams", "ext_audit"),
        pytest.param("ps", "model", "ps_audit", id="ps-margolis-ps_audit"),
    ),
)
def test_audit_failure_exits_one(which, module, name, monkeypatch, capsys):
    target = importlib.import_module(f"kuengine.{module}")
    monkeypatch.setattr(target, name, lambda *args: {"ok": False})
    rc, out, _ = run(["audit", "--which", which], capsys)
    assert rc == 1
    assert json.loads(out) == {"ok": False}


def test_ps_formats_agree_with_the_series(capsys):
    want = list(model.free_part_ps(2, 12).c)
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
        "292313f28922a95a31e29ce03f922fbc020de5b22f85b4082542f3bd0ba7307d",
    "audit --which theorem61 --prime 3 --max 200":
        "1494c66c2ee859a700ec1b454b5274160acf809952acd3bbe6d7058a083fa2af",
    "audit --which theorem61 --prime 5 --max 200":
        "0a27321e9b7d36a1ff5494114e1d37f2e70326a0d556258c6363a5a9e0f7520f",
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
        "292313f28922a95a31e29ce03f922fbc020de5b22f85b4082542f3bd0ba7307d",
    "audit --which matching --prime 3":
        "79f56aa54e872bd142e903f86eb70a4bbaddec888091669dd6bf20793c9b9637",
    "audit --which einfty --prime 3":
        "9974645ee86e0fe4a09e6d48e58f265eb5178cc82aedd3c95baf1eb86f73b5f2",
    "audit --which duality --prime 3":
        "a9280efc17a4b7319b32c68ae141db618984c210f6dd93298198ecdbdd252722",
    "audit --which theorem61 --prime 3":
        "1494c66c2ee859a700ec1b454b5274160acf809952acd3bbe6d7058a083fa2af",
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


def test_bockstein_and_theorem61_reports_name_their_sides(capsys):
    # both compare a count with k1_dims degree by degree; a saved report
    # must still say which audit made it
    reports = [
        run(["audit", "--which", which, "--prime", "3", "--max", "200"], capsys)[1]
        for which in ("bockstein", "theorem61")
    ]
    assert reports[0] != reports[1]
    sides = [set(json.loads(out)["rows"][0]) - {"degree", "pass"} for out in reports]
    assert sides == [{"k1", "ku_cyclic"}, {"splitting", "k1"}]


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
    assert json.loads(out) == list(model.free_part_ps(2, 0).c)


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


def test_a_renderer_failing_midway_leaves_the_target(tmp_path, monkeypatch, capsys):
    # the chart is written block by block: a renderer that fails after its
    # first block must leave the previous target and no temporary file
    from kuengine import render

    target = tmp_path / "a8.svg"
    target.write_text("previous\n")
    inner = render.render_svg

    def failing(doc):
        blocks = inner(doc)
        yield next(blocks)
        raise RuntimeError("renderer crashed")

    monkeypatch.setattr(render, "render_svg", failing)
    with pytest.raises(RuntimeError, match="renderer crashed"):
        cli.main(["chart", "A:8", "--prime", "2", "--format", "svg", "--out", str(target)])
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == ["a8.svg"]
    assert target.read_text() == "previous\n"


def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(["chart", "A:3", "--prime", "2", "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"kuengine: cannot write {target}: ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []  # no .tmp debris, no directory made


def _cli_process(argv, stdout):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "kuengine.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
    )


def test_a_closed_stdout_pipe_is_a_usage_error():
    # as `kuengine chart ... | head -c 1`: the 425 kB document overfills the
    # pipe, so the write fails however late the reader closes its end
    proc = _cli_process(["chart", "A:8", "--prime", "2", "--format", "svg"], subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == "kuengine: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_device_is_a_usage_error():
    # the report fits stdout's buffer, so only the flush sees the full device
    with open("/dev/full", "w") as full:
        proc = _cli_process(["audit", "--which", "ext", "--prime", "2"], full)
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == "kuengine: cannot write stdout: No space left on device\n"


def _raise(*args):
    raise RuntimeError("audit crashed")


# every way out of main: (argv, stand-in for model.ps_audit, outcome)
MAIN_EXITS = {
    "exit 0": (["ps", "--max", "3"], None, 0),
    "exit 1": (["audit", "--which", "ps"], lambda *args: {"ok": False}, 1),
    "exit 2": (["groups", "--prime", "6", "--window", "0:3"], None, 2),
    "--help": (["--help"], None, SystemExit(0)),
    "bad choice": (["audit", "--which", "nope"], None, SystemExit(2)),
    "exception": (["audit", "--which", "ps"], _raise, RuntimeError("audit crashed")),
}


@pytest.mark.parametrize("enabled", (True, False), ids=("gc-on", "gc-off"))
@pytest.mark.parametrize("argv, audit, outcome", MAIN_EXITS.values(), ids=MAIN_EXITS)
def test_main_runs_with_the_collector_off_and_gives_its_state_back(
    argv, audit, outcome, enabled, monkeypatch, capsys
):
    seen = []
    if audit is not None:
        def audit_seeing_the_collector(*args):
            seen.append(gc.isenabled())
            return audit(*args)

        monkeypatch.setattr(model, "ps_audit", audit_seeing_the_collector)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            got = cli.main(argv)
        except (SystemExit, RuntimeError) as exc:
            got = exc
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert repr(got) == repr(outcome)
    assert seen == ([] if audit is None else [False])


def test_the_program_exits_with_the_command_left_frozen(monkeypatch, capsys):
    # the collections at interpreter exit skip frozen objects, so they do not
    # walk the caches the command filled with the collector off
    monkeypatch.setattr(sys, "argv", ["kuengine", "ps", "--max", "3"])
    before = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, gc.isenabled()) == (0, False)
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        (gc.enable if before else gc.disable)()
    assert json.loads(capsys.readouterr().out) == list(model.free_part_ps(2, 3).c)


# A command's cyclic garbage is set-up (the argparse parser), not
# work: in a fresh interpreter, gc.collect() after main finds as much at a
# small window as at a large one.  Were the work to leave cycles, the
# collector main turns off would be needed to free them.
GARBAGE_WINDOWS = {
    "einfty-chart": (
        "chart --einfty --prime 2 --window 0:40",
        "chart --einfty --prime 2 --window 0:80",
    ),
    "A-chart": ("chart A:4 --prime 2", "chart A:8 --prime 2"),
    "einfty": (
        "audit --which einfty --prime 2 --max 60",
        "audit --which einfty --prime 2 --max 200",
    ),
    "ext": (
        "audit --which ext --prime 2 --max-degree 20 --max-s 4",
        "audit --which ext --prime 2 --max-degree 36 --max-s 8",
    ),
    "margolis": (
        "audit --which margolis --prime 2 --max 20",
        "audit --which margolis --prime 2 --max 60",
    ),
    "duality": (
        "audit --which duality --prime 2 --max 3",
        "audit --which duality --prime 2 --max 5",
    ),
    "groups": ("groups --prime 2 --window 0:50", "groups --prime 2 --window 0:300"),
    "ps": ("ps --prime 2 --max 50", "ps --prime 2 --max 400"),
}

COUNT_GARBAGE = (
    "import gc, sys\n"
    "from kuengine import cli\n"
    "gc.collect()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(rc, gc.collect(), file=sys.stderr)\n"
)


@pytest.mark.parametrize("small, large", GARBAGE_WINDOWS.values(), ids=GARBAGE_WINDOWS)
def test_cyclic_garbage_does_not_grow_with_the_window(small, large, tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    counts = []
    for command in (small, large):
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_GARBAGE, *command.split()],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        rc, garbage = proc.stderr.split()
        assert rc == "0", proc.stderr
        counts.append(int(garbage))
    assert counts[0] == counts[1], (small, large, counts)


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


# -- what the commands reach ------------------------------------------------

# Small windows of every subcommand, chart format and audit, at p = 2 and at
# an odd prime: together they reach each function a command runs.
REACH_AUDITS = {
    "bockstein": "--max 40",
    "matching": "--max 60 --max-s 10",
    "einfty": "--max 60",
    "duality": "--max 3",
    "theorem61": "--max 60",
    "margolis": "--max 30",
    "ext": "--max-degree 20 --max-s 4",
    "ps": "--max 40",
}
REACH_COMMANDS = [
    "groups --prime 2 --window 0:40 --include-free",
    "groups --prime 3 --from 0 --to 30 --homology",
    "chart A:3 --prime 2 --format json",
    "chart A:3 B:3 --prime 2 --format svg",
    "chart S:2:3 --prime 3 --format tikz",
    "chart full-even --prime 2 --window 0:30",
    "chart full-odd --prime 3 --window 0:40 --format svg",
    "chart --einfty --prime 2 --window 0:40 --max-s 10 --format svg",
    "chart --einfty --prime 3 --window 0:40 --max-s 6 --format tikz",
    *(f"ps --prime 2 --max 40 --which {which} --format csv" for which in cli.SERIES),
    "ps --prime 3 --max 40",
    *(
        f"audit --which {which} --prime {p} {flags}"
        for which, flags in REACH_AUDITS.items()
        for p in ((3,) if which == "theorem61" else (2, 3))
    ),
]

FAILURE_ONLY = "failure-only: it runs when a check fails or a caller errs"
TRACED = "perfbench/tracer.py traces it, reads its cache or resolves it"
GATE = "an input of the acceptance gate (tests/test_acceptance.py)"
PAGE_OPS = "h0 and v on a page, kept for the E-infinity h0 and extension checks to come"
PROTOCOL = "a Python protocol method the tests read: repr, ==, copy, or refused assignment"

# src/ functions no command reaches, each with the reason it stays
UNREACHED = {
    "adams.BigradedPage.__iter__": FAILURE_ONLY + " (_double_hits walks every key)",
    "adams.Towers.__iter__": FAILURE_ONLY + " (through BigradedPage.__iter__)",
    "adams._double_hits": FAILURE_ONLY,
    "adams.dot_label": FAILURE_ONLY + " (it spells a problem), and run_differentials' records",
    "adams.classify": TRACED,
    "adams.run_differentials": TRACED,
    "chart.RealizedWindow.__init__": TRACED,
    "chart.RealizedWindow._check": TRACED,
    "chart.RealizedWindow.rank_invariant": TRACED,
    "cli.__getattr__": TRACED,
    "linalg.gf_rank": TRACED,
    "render.ChartDocument.to_json": TRACED,
    "margolis.E1Module.validate": FAILURE_ONLY,
    "chart.Chart.dims_at": GATE,
    "modules.assoc_graded_dims": GATE,
    "modules.ku_group_at": GATE,
    "modules._round_up": GATE + ": ku_group_at's default cutoff",
    "padic.table35_row": GATE,
    "adams.BigradedPage.height": PAGE_OPS + ": the per-key height that _alive reads",
    "adams.BigradedPage._alive": PAGE_OPS,
    "adams.BigradedPage.h0_op": PAGE_OPS,
    "adams.BigradedPage.v_op": PAGE_OPS,
    "monomial.Monomial.__reduce__": PROTOCOL,
    "monomial.Monomial.__repr__": PROTOCOL,
    "monomial.Monomial.__setattr__": PROTOCOL,
    "series.PSeries.__eq__": PROTOCOL,
    "series.PSeries.__repr__": PROTOCOL,
}


def package_functions():
    """Qualified name -> code object of every function and method that a
    module under src/kuengine defines (an lru_cache'd one unwrapped)."""
    out = {}
    for info in pkgutil.iter_modules(kuengine.__path__):
        mod = importlib.import_module(f"kuengine.{info.name}")
        for obj in list(vars(mod).values()):
            found = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                found += vars(obj).values()
            for fn in found:
                fn = fn.fget if isinstance(fn, property) else getattr(fn, "__func__", fn)
                fn = getattr(fn, "__wrapped__", fn)
                if hasattr(fn, "__code__") and fn.__module__ == mod.__name__:
                    out[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return out


def unreached_names(commands):
    """The package_functions() that none of the commands calls, run in this
    process under sys.setprofile, nor the program entry point (cli.run) on
    a ps command."""
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    argv, sys.argv = sys.argv, ["kuengine", "ps", "--max", "3"]
    sys.setprofile(record)
    try:
        for command in commands:
            assert cli.main(command.split()) == 0, command
        try:
            cli.run()
        except SystemExit as exc:
            assert exc.code == 0
    finally:
        sys.setprofile(None)
        sys.argv = argv
    return sorted(name for name, code in package_functions().items() if code not in reached)


# a fresh interpreter: cold caches, and no collector state left to later tests
REACH_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_cli import REACH_COMMANDS, unreached_names\n"
    "names = unreached_names(REACH_COMMANDS)\n"
    "with open(sys.argv[2], 'w') as fh:\n"
    "    json.dump(names, fh)\n"
)


def test_every_function_a_command_misses_is_listed_with_its_reason(tmp_path):
    # a second path a refactor leaves behind shows here as a new unreached name
    assert {c.split()[0] for c in REACH_COMMANDS} == {"groups", "chart", "ps", "audit"}
    assert set(REACH_AUDITS) == set(cli.AUDITS)
    charts = [c.split() for c in REACH_COMMANDS if c.startswith("chart")]
    assert {c[c.index("--format") + 1] for c in charts if "--format" in c} == {"json", "svg", "tikz"}
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "unreached.json"
    argv = [sys.executable, "-c", REACH_CHILD, str(root / "tests"), str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(UNREACHED) <= set(package_functions())
    assert set(json.loads(out.read_text())) == set(UNREACHED)

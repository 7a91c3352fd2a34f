"""Command-line front end: group tables, chart emission, audits, and
Poincare-series dumps.

    kuengine groups --prime 2 --from 80 --to 84
    kuengine chart A:5 --prime 2 --format svg --out a5.svg
    kuengine chart A:5 B:5 --prime 2 --format tikz      (dashed A-minus-B)
    kuengine chart --einfty --prime 2 --window 0:60 --max-s 14
    kuengine audit --which bockstein --prime 2 --max 200
    kuengine ps --prime 2 --max 120 --format csv

All output is deterministic (no timestamps) and, with --out, written
atomically: a temporary file beside the target replaces it once the whole
output is in.  A chart, in every format, is written block by block, never
held whole.  Exit status: 0 on success (for audits: all checks passed), 1
on a failed audit, 2 on usage errors or unsupported combinations.

Each subcommand imports only the modules it runs, and records are
NamedTuples or plain classes, since every command pays interpreter start
and imports.  Compiling from source (no .pyc) with CPython 3.11 on a
2-core Xeon VM, the imports add to a bare interpreter (medians of 41
runs): the front end alone (--help) 9 ms; ps 16 ms; groups and the
duality audit 24 ms, 26 ms with --include-free; the margolis and ps
audits 24 ms; the einfty audit 34 ms; chart 38 ms; the ext audit 42 ms;
every module 49 ms.

`main` runs each command with the cyclic garbage collector off, then gives
the caller back the collector state it had, and the program (`run`) freezes
what the command left before it exits; library calls keep Python's default.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import sys
from functools import partial

# The subsystems are imported by the commands that run them.  The module
# __getattr__ (PEP 562) keeps the render names the benchmark's tracer reads
# off cli resolving, imported on first use and looked up afresh on every
# access, so a wrapper installed on render is what cli returns.
_RENDER_NAMES = ("document_from_chart", "document_from_einfty", "render_svg")


def _load(module: str):
    return importlib.import_module(f"{__package__}.{module}")


def __getattr__(name: str):
    if name in _RENDER_NAMES:
        return getattr(_load("render"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# name -> (call, {flag dest: default}).  Each call imports its module and
# looks its function up when it runs, so a wrapper installed on the module (a
# tracer, a test) is seen.
AUDITS = {
    "bockstein": (lambda p, n: _load("k1").bockstein_audit(p, n), {"max_n": 200}),
    "matching": (lambda p, n, s: _load("adams").matching_audit(p, 0, n, s), {"max_n": 120, "max_s": 40}),
    "einfty": (lambda p, n, s: _load("adams").einfty_audit(p, n, s), {"max_n": 120, "max_s": None}),
    "duality": (lambda p, k: _load("modules").duality_audit(p, k), {"max_n": 4}),
    "theorem61": (lambda p, n: _load("k1").theorem61_audit(p, n), {"max_n": 200}),
    "margolis": (lambda p, n: _load("model").margolis_audit(p, n), {"max_n": 60}),
    "ext": (lambda p, d, s: _load("adams").ext_audit(p, d, s), {"max_degree": 40, "max_s": 8}),
    "ps": (lambda p, n: _load("model").ps_audit(p, n), {"max_n": 100}),
}

# audit flag dest -> the flag as typed
AUDIT_FLAGS = {"max_n": "--max", "max_degree": "--max-degree", "max_s": "--max-s"}

SERIES = {
    "free": lambda p, top: _load("model").free_part_ps(p, top).c,
    "free-total": lambda p, top: _load("model").free_part_total_ps(p, top).c,
    "trivial": lambda p, top: _load("model").trivial_summand_counts(p, top).c,
    "k1": lambda p, top: _load("k1").k1_dims(p, top),
}


class UsageError(Exception):
    pass


class RunConfig:
    def __init__(self, prime: int, window: tuple[int, int] | None = None, homology: bool = False,
                 include_free: bool = False, fmt: str = "json", out: str | None = None):
        self.prime, self.window, self.homology = prime, window, homology
        self.include_free, self.fmt, self.out = include_free, fmt, out
        if not _is_prime(self.prime):
            raise UsageError(f"--prime {self.prime} is not a prime")
        if self.window is not None and self.window[0] > self.window[1]:
            raise UsageError(f"empty window {self.window}")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _pretty_group(exponents: list[int], p: int) -> str:
    if not exponents:
        return "0"
    return " + ".join(f"Z/{p**e}" for e in exponents)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def cmd_groups(config: RunConfig) -> list[dict]:
    """One row per degree in the window: cyclic decomposition of ku^n (or
    ku_n with --homology), plus the trivial-summand count with
    --include-free.  Shift bookkeeping: homology degree n reads cohomology
    degree n + 2p, and a free generator in cohomology degree d leaves its
    trivial Z/p at codegree d + 2p (so in homology mode the count at n is
    the generator count at n itself)."""
    if config.window is None:
        raise UsageError("groups needs a degree window (--from/--to or --window)")
    lo, hi = config.window
    if lo < 0:
        raise UsageError(f"groups degrees must be >= 0, got window {config.window}")
    from . import modules

    p = config.prime
    shift = 2 * p if config.homology else 0
    free = None
    if config.include_free:
        from . import model

        free = model.trivial_summand_counts(p, hi + shift)
    chart = modules.full_chart(p, hi + shift)
    rows = []
    for n in range(lo, hi + 1):
        exps = chart.group_at(n + shift)
        row = {
            "degree": n,
            "group": [p**e for e in exps],
            "pretty": _pretty_group(exps, p),
        }
        if free is not None:
            row["free"] = free[n + shift]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _chart_for_selector(p: int, sel: str, cutoff: int | None):
    from . import modules

    parts = sel.split(":")
    try:
        if parts[0] == "A" and len(parts) == 2:
            return modules.build_A(p, int(parts[1]))
        if parts[0] == "B" and len(parts) == 2:
            return modules.build_B(p, int(parts[1]))
        if parts[0] == "S" and len(parts) == 3:
            return modules.build_S(p, int(parts[1]), int(parts[2]))
        if sel in ("full-even", "full-odd"):
            if cutoff is None:
                raise UsageError(f"{sel} needs --window to bound the chart")
            return (modules.even_part if sel == "full-even" else modules.odd_part)(p, cutoff)
    except ValueError as exc:
        raise UsageError(f"selector {sel!r}: {exc}") from exc
    raise UsageError(f"unknown selector {sel!r} (expected A:k, B:k, S:k:l, full-even, full-odd)")


def cmd_chart(config: RunConfig, selectors: list[str], einfty: bool = False,
              s_max: int | None = None) -> ChartDocument:
    from . import render

    p = config.prime
    cutoff = config.window[1] if config.window else None
    if einfty:
        if selectors:
            raise UsageError("--einfty replaces the module selector")
        if config.window is None:
            raise UsageError("--einfty needs --window")
        lo, hi = config.window
        build = partial(render.document_from_einfty, p, lo, hi, s_max if s_max is not None else 40)
    elif not selectors:
        raise UsageError("chart needs a module selector (or --einfty)")
    elif s_max is not None:
        raise UsageError("--max-s caps only chart --einfty")
    elif len(selectors) == 1:
        chart = _chart_for_selector(p, selectors[0], cutoff)
        build = partial(render.document_from_chart, chart, config.window)
    elif len(selectors) == 2:
        kinds = {s.split(":")[0] for s in selectors}
        tails = {s.split(":", 1)[1] if ":" in s else "" for s in selectors}
        if kinds != {"A", "B"} or len(tails) != 1:
            raise UsageError(
                "two selectors must be A:k and B:k with the same k "
                "(the dashed A-minus-B overlay)"
            )
        a_sel, b_sel = sorted(selectors)
        base = _chart_for_selector(p, b_sel, cutoff)
        ambient = _chart_for_selector(p, a_sel, cutoff)
        build = partial(render.document_from_chart, ambient, config.window, base=base)
    else:
        raise UsageError("at most two selectors")
    try:
        return build()
    except ValueError as exc:
        # a window the page refuses, or a document that is not canonical
        raise UsageError(f"chart: {exc}") from exc


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def cmd_audit(
    config: RunConfig,
    which: str,
    max_n: int | None = None,
    max_degree: int | None = None,
    max_s: int | None = None,
) -> dict:
    if which not in AUDITS:
        raise UsageError(f"unknown audit {which!r} (choose from {', '.join(AUDITS)})")
    call, defaults = AUDITS[which]
    given = {"max_n": max_n, "max_degree": max_degree, "max_s": max_s}
    given = {dest: value for dest, value in given.items() if value is not None}
    for dest in given:
        if dest not in defaults:
            raise UsageError(f"audit {which} does not read {AUDIT_FLAGS[dest]}")
    try:
        return call(config.prime, *{**defaults, **given}.values())
    except ValueError as exc:
        # an audit raises ValueError for a window or cap it cannot check
        raise UsageError(f"audit {which}: {exc}") from exc


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------


def cmd_ps(config: RunConfig, which: str, top: int) -> list[int]:
    if which not in SERIES:
        raise UsageError(f"unknown series {which!r} (choose from {', '.join(SERIES)})")
    return list(SERIES[which](config.prime, top))


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _output(out: str | None):
    """The text file a command writes its output to: stdout, or a temporary
    file beside --out that replaces it only once the whole output is in."""
    if out is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # a closed pipe or a full device: the interpreter flushes stdout
            # again at exit, so send what its buffer holds to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    import tempfile

    directory, name = os.path.split(out)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # mkstemp makes the file 0600; give it the mode open() would
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                yield fh
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # a missing directory or an unwritable target is the caller's to fix
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write a fully composed output in one atomic step."""
    with _output(out) as fh:
        fh.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _nonnegative(text: str) -> int:
    """argparse type for degree and filtration bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_window(args) -> tuple[int, int] | None:
    if getattr(args, "window", None):
        if getattr(args, "lo", None) is not None or getattr(args, "hi", None) is not None:
            raise UsageError("give --window or --from/--to, not both")
        try:
            a, b = args.window.split(":")
            return (int(a), int(b))
        except ValueError as exc:
            raise UsageError(f"bad --window {args.window!r} (expected a:b)") from exc
    lo = getattr(args, "lo", None)
    hi = getattr(args, "hi", None)
    if lo is None and hi is None:
        return None
    if lo is None or hi is None:
        raise UsageError("--from and --to must be given together")
    return (lo, hi)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kuengine",
        description="Connective K-theory of the mod-p Eilenberg-MacLane "
        "space K(Z/p, 2): groups, charts, audits, series.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices):
        sp.add_argument("--prime", type=int, default=2)
        sp.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        sp.add_argument("--out", metavar="PATH")

    g = sub.add_parser("groups", help="cyclic decompositions per degree")
    common(g, ("json",))
    g.add_argument("--from", dest="lo", type=int)
    g.add_argument("--to", dest="hi", type=int)
    g.add_argument("--window", metavar="a:b")
    g.add_argument("--homology", action="store_true")
    g.add_argument("--include-free", action="store_true")

    c = sub.add_parser("chart", help="emit a chart document")
    common(c, ("json", "svg", "tikz"))
    c.add_argument("selector", nargs="*")
    c.add_argument("--window", metavar="a:b")
    c.add_argument("--einfty", action="store_true")
    c.add_argument("--max-s", dest="max_s", type=_nonnegative)

    a = sub.add_parser("audit", help="run a cross-check and report")
    common(a, ("json",))
    a.add_argument("--which", required=True, choices=AUDITS)
    for dest, flag in AUDIT_FLAGS.items():
        a.add_argument(flag, dest=dest, type=_nonnegative)

    s = sub.add_parser("ps", help="Poincare series dump")
    common(s, ("json", "csv"))
    s.add_argument("--which", choices=SERIES, default="free")
    s.add_argument("--max", dest="max_n", type=_nonnegative, default=100)
    return top


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off, then give the
    caller back the collector state it had.  What a command builds (towers,
    keys, document records, matrix rows) is acyclic, so a collection frees
    nothing; tests/test_cli.py checks that a command's cyclic garbage does
    not grow with its window."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            prime=args.prime,
            window=_parse_window(args),
            homology=getattr(args, "homology", False),
            include_free=getattr(args, "include_free", False),
            fmt=args.format,
            out=args.out,
        )
        if args.command == "groups":
            _emit(_dump(cmd_groups(config)), config.out)
            return 0
        if args.command == "chart":
            from . import render

            doc = cmd_chart(config, args.selector, args.einfty, args.max_s)
            with _output(config.out) as fh:  # block by block, never whole
                fh.writelines(getattr(render, f"render_{config.fmt}")(doc))
            return 0
        if args.command == "audit":
            report = cmd_audit(config, args.which, args.max_n, args.max_degree, args.max_s)
            _emit(_dump(report), config.out)
            return 0 if report["ok"] else 1
        if args.command == "ps":
            coeffs = cmd_ps(config, args.which, args.max_n)
            if config.fmt == "csv":
                rows = "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))
                _emit("degree,count\n" + rows, config.out)
            else:
                _emit(_dump(coeffs), config.out)
            return 0
    except UsageError as exc:
        print(f"kuengine: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def run() -> None:
    """The `kuengine` program: `main` on sys.argv, then exit with its status.
    The collector stays off to the end, and what the command left alive (its
    caches) is frozen first, so the collections at interpreter exit skip it:
    after `audit --which einfty --prime 3 --max 1500` they took about 1.1 s
    unfrozen (0.45 s had the collector run throughout, since its passes
    untrack tuples of atoms), and 0.02 s frozen."""
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()

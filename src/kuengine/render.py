"""Serialization-ready chart documents and their SVG/TikZ renderings.

A ChartDocument flattens a chart into a list of dots (codegree, filtration,
label) plus a list of lines referencing dots by index.  Line kinds:

    "v"                diagonal v-multiplication within a tower
    "h0"               p-multiplication visible in filtration (vertical)
    "exotic"           p-multiplication with a filtration jump (curved)
    "differential(r)"  a d_r arrow on the E2 overlay

Documents come from two sources: the closed-form ku charts ("closed-form")
and the Adams E2 window with its replayed differentials ("einfty-overlay").
Both builders read every line endpoint off tower runs (a window range of a
and the index of the a = 0 dot); the closed-form one flags the A-minus-B
overlay in that pass.  ChartDocument sorts the line list it is given in place.

Rendering follows the chart conventions used throughout: codegrees increase
from right to left, filtration increases bottom to top.  Everything is
deterministic -- dots sorted by (degree, filtration, label), lines by (kind,
endpoints), no timestamps -- so identical inputs give byte-identical output,
and to_json/from_json are mutually inverse on canonical documents.  DocDot
and DocLine are named tuples whose field order is that canonical key, so a
document sorts its records natively.  to_json writes exactly the text of
json.dumps(document, indent=1, sort_keys=True), but formats it one dot or
line record at a time instead of through the pure-Python indent encoder;
strings go through json's own escaper, encode_basestring_ascii, which is
what json.dumps calls on a str.  to_json returns the whole text as a str,
which from_json reads back.

render_svg and render_tikz are generators: they yield the text in blocks of
a few thousand records (the header and axis, the lines, the dots, the
closing tag), and "".join of the blocks is the whole document, so a caller
writes a chart block by block and never holds all of its text.  The SVG
writer formats each distinct line geometry once.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .adams import Key, e2_window, fate, h0_mate, run_labels
from .chart import Chart, tower_dots, v_label

_KIND = re.compile(r"v|h0|exotic|differential\((\d+)\)")

SOURCES = ("closed-form", "einfty-overlay")
SCHEMA_VERSION = 1


class DocDot(NamedTuple):
    degree: int
    filtration: int
    label: str
    overlay: bool = False


class DocLine(NamedTuple):
    kind: str
    src: int
    dst: int


_OVERLAY = ',\n   "overlay": true'  # the key a dot record carries only when set
_DOC_FIELDS = attrgetter("prime", "window", "source", "dots", "lines")


def _json_list(records: list[str]) -> str:
    """A list of already indented records, as json.dumps(indent=1) nests it
    one level below the top."""
    return "[\n" + ",\n".join(records) + "\n ]" if records else "[]"


class ChartDocument:
    """A canonical chart document.  Builders may pass lines as plain
    (kind, src, dst) tuples indexing the unsorted dots.  The document takes
    ownership of a lines list (any other iterable is copied into one once):
    it validates the input, sorts the dots, then replaces each line in place
    with its DocLine on the sorted dots and sorts the list it keeps."""

    def __init__(self, prime: int, window: tuple[int, int], source: str, dots=(), lines=()):
        self.prime, self.window, self.source = prime, window, source
        self.dots, self.lines = dots, lines if isinstance(lines, list) else list(lines)
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        lo, hi = self.window
        if lo > hi:
            raise ValueError("empty window")
        self.validate()
        # canonicalize: sort dots, remap and sort line endpoints
        order = sorted(range(len(dots)), key=dots.__getitem__)
        remap = [0] * len(order)
        for new, old in enumerate(order):
            remap[old] = new
        self.dots = [dots[i] for i in order]
        # tuple.__new__ skips the NamedTuple's Python-level __new__ per line
        new, lines = tuple.__new__, self.lines
        for i, (kind, src, dst) in enumerate(lines):
            lines[i] = new(DocLine, (kind, remap[src], remap[dst]))
        lines.sort()

    def __eq__(self, other):
        return other.__class__ is ChartDocument and _DOC_FIELDS(self) == _DOC_FIELDS(other)

    def validate(self) -> None:
        lo, hi = self.window
        for d in self.dots:
            if not (lo <= d.degree <= hi):
                raise ValueError(f"dot {d} outside window [{lo}, {hi}]")
        # lines are few kinds repeated: match each distinct kind once
        for kind in dict.fromkeys(map(itemgetter(0), self.lines)):
            if not _KIND.fullmatch(kind):
                raise ValueError(f"unknown line kind {kind!r}")
        n_dots = len(self.dots)
        for _, src, dst in self.lines:
            if not (0 <= src < n_dots and 0 <= dst < n_dots):
                end = dst if 0 <= src < n_dots else src
                raise ValueError(f"line endpoint {end} references no dot")

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> str:
        """json.dumps of the document dict with indent=1 and sort_keys=True,
        byte for byte, written one record at a time."""
        enc = encode_basestring_ascii  # what json.dumps calls on a str
        dots = [
            f'  {{\n   "degree": {d.degree},\n   "filtration": {d.filtration},\n'
            f'   "label": {enc(d.label)}{_OVERLAY if d.overlay else ""}\n  }}'
            for d in self.dots
        ]
        kinds = {k: enc(k) for k in set(map(itemgetter(0), self.lines))}
        lines = [
            f'  {{\n   "dst": {dst},\n   "kind": {kinds[kind]},\n   "src": {src}\n  }}'
            for kind, src, dst in self.lines
        ]
        lo, hi = self.window
        return (
            f'{{\n "dots": {_json_list(dots)},\n "lines": {_json_list(lines)},\n'
            f' "prime": {self.prime},\n "schema_version": {SCHEMA_VERSION},\n'
            f' "source": {enc(self.source)},\n "window": [\n  {lo},\n  {hi}\n ]\n}}'
        )

    @staticmethod
    def from_json(text: str) -> "ChartDocument":
        doc = json.loads(text)
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        return ChartDocument(
            doc["prime"],
            tuple(doc["window"]),
            doc["source"],
            [
                DocDot(
                    d["degree"],
                    d["filtration"],
                    d["label"],
                    d.get("overlay", False),
                )
                for d in doc["dots"]
            ],
            [(l["kind"], l["src"], l["dst"]) for l in doc["lines"]],
        )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _chart_dots_and_lines(chart: Chart, lo: int, hi: int, base: Chart | None = None):
    """Window dots of a closed-form chart, with v-lines and p-edge lines as
    (kind, src, dst) tuples, in one pass over the towers' window runs.  With
    a base chart, v^a . g is flagged as overlay unless the base has a tower on
    g taller than a (towers sit at filtration 0, so g and a fix the dot)."""
    step = 2 * (chart.p - 1)
    tall: dict = {}  # generator -> the base's tallest tower on it
    for t in base.towers if base is not None else ():
        tall[t.gen] = max(tall.get(t.gen, 0), t.height)
    # runs[tid]: (doc index of the tower's a = 0 dot, window range of its a)
    runs, dots, lines = [], [], []
    for t in chart.towers:
        gen, top = t.gen.render(), t.gen_degree
        run, first = tower_dots(top, t.height, step, lo, hi), len(dots)
        runs.append((first - run.start, run))
        h = t.height if base is None else tall.get(t.gen, 0)
        dots += [DocDot(top - step * a, a, v_label(gen, a), a >= h) for a in run]
        lines += [("v", i, i + 1) for i in range(first, len(dots) - 1)]
    for e in chart.edges:  # targets share the source's degree: in the window with it
        (src_base, src_run), a = runs[e.src[0]], e.src[1]
        if a in src_run:
            lines += [(e.kind, src_base + a, runs[t][0] + b) for t, b in e.dst]
    return dots, lines


def _window(chart: Chart, window: tuple[int, int] | None) -> tuple[int, int]:
    """The given window, or by default the chart's dot degrees (0..0 for a
    chart with no dot)."""
    if window is not None:
        return window
    lo = chart.min_dot_degree()
    return (0, 0) if lo is None else (lo, chart.max_dot_degree())


def document_from_chart(
    chart: Chart, window: tuple[int, int] | None = None, base: Chart | None = None
) -> ChartDocument:
    """Closed-form document: tower dots, v-lines, and p-edge lines (h0 or
    exotic).  Lines with an endpoint outside the window are dropped.  With a
    base chart, every dot outside it is flagged as overlay (rendered
    dashed/open): the A-minus-B view."""
    lo, hi = _window(chart, window)
    dots, lines = _chart_dots_and_lines(chart, lo, hi, base)
    return ChartDocument(chart.p, (lo, hi), "closed-form", dots, lines)


def document_from_einfty(
    p: int, n_lo: int, n_hi: int, s_max: int
) -> ChartDocument:
    """E2 window with its v- and h0-lines and the replayed differentials.

    Every window dot is drawn.  A d_r arrow runs from each window dot of a
    source tower whose a = 0 dot lies in the window to its partner's dot,
    when that dot is in the window too.  So the arrow-free dots are not
    E-infinity in general: a source based above n_hi draws no arrow, nor
    does one whose partner lies outside the window, and their dots stay
    arrow-free although they do not survive."""
    page = e2_window(p, n_lo, n_hi, s_max)
    w = page.w
    # each window tower's run: (doc index of its a = 0 dot, window range of a)
    runs: dict[Key, tuple[int, range]] = {}
    dots: list[DocDot] = []
    for key, n0, s0, run in page.window_runs(page.heights):
        runs[key] = (len(dots) - run.start, run)
        dots += [DocDot(n0 - w * a, s0 + a, lab) for a, lab in zip(run, run_labels(p, key, run))]

    lines: list[tuple[str, int, int]] = []
    for key, (base, run) in runs.items():
        lines += [("v", base + a, base + a + 1) for a in run[:-1]]
        # h0 . v^a (key) = v^(a + shift) (mate), drawn where both dots are
        h0 = h0_mate(p, key)
        if h0 is not None and h0[0] in runs:
            (mate_base, mate_run), shift = runs[h0[0]], h0[1]
            lo, hi = max(run.start, mate_run.start - shift), min(run.stop, mate_run.stop - shift)
            lines += [("h0", base + a, mate_base + a + shift) for a in range(lo, hi)]
        if run.start:
            continue  # arrows leave only towers whose a = 0 dot is drawn
        role, _, r, e0, partner = fate(p, key)
        if role != "source" or partner not in runs:
            continue
        tgt_base, tgt_run = runs[partner]
        kind = f"differential({r})"
        for a in run:
            if e0 + a in tgt_run:
                lines.append((kind, base + a, tgt_base + e0 + a))
    return ChartDocument(p, (n_lo, n_hi), "einfty-overlay", dots, lines)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_CELL = 16
_MARGIN = 34
_COLOR = {"v": "#000000", "h0": "#000000", "exotic": "#cc0000"}
_DIFF_COLOR = "#1144bb"
_BLOCK = 2048  # records per yielded block


def _fmt(x: float) -> str:
    return f"{x:.1f}".rstrip("0").rstrip(".")


def _blocks(records: Iterable[str]) -> Iterator[str]:
    """The records joined by newlines, _BLOCK at a time: each block ends in
    the newline that one join of every record would put after its last."""
    records = iter(records)
    while block := list(islice(records, _BLOCK)):
        block.append("")
        yield "\n".join(block)


def render_svg(doc: ChartDocument) -> Iterator[str]:
    """Deterministic standalone SVG, yielded in blocks.  Codegrees increase
    right-to-left: the window's top degree sits at the left edge."""
    lo, hi = doc.window
    dots = doc.dots
    filtrations = set(map(attrgetter("filtration"), dots))
    s_top = max(filtrations, default=0)
    width = 2 * _MARGIN + (hi - lo) * _CELL
    height = 2 * _MARGIN + max(s_top, 1) * _CELL

    def x(n: int) -> float:
        return _MARGIN + (hi - n) * _CELL

    def y(s: int) -> float:
        return height - _MARGIN - s * _CELL

    # every dot sits on one of a few columns and rows: format each once
    xs = {n: _fmt(x(n)) for n in set(map(attrgetter("degree"), dots))}
    ys = {s: _fmt(y(s)) for s in filtrations}

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<defs><marker id='arrow' viewBox='0 0 10 10' refX='9' refY='5' "
        "markerWidth='6' markerHeight='6' orient='auto-start-reverse'>"
        "<path d='M 0 0 L 10 5 L 0 10 z' fill='#1144bb'/></marker></defs>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN // 2}" font-size="11" '
        f'font-family="monospace">p={doc.prime} window=[{lo},{hi}] '
        f"source={doc.source}</text>",
    ]
    axis_y = height - _MARGIN + 8
    tick = 2 * doc.prime
    first = lo + (-lo) % tick
    for n in range(first, hi + 1, tick):
        head.append(
            f'<text x="{_fmt(x(n))}" y="{axis_y + 10}" font-size="9" '
            f'font-family="monospace" text-anchor="middle">{n}</text>'
        )
        head.append(
            f'<line x1="{_fmt(x(n))}" y1="{axis_y}" x2="{_fmt(x(n))}" '
            f'y2="{axis_y - 4}" stroke="#888888" stroke-width="1"/>'
        )
    yield from _blocks(head)

    def line(kind: str, a: DocDot, b: DocDot, dashed: bool) -> str:
        x1, y1 = xs[a.degree], ys[a.filtration]
        x2, y2 = xs[b.degree], ys[b.filtration]
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        if kind.startswith("differential"):
            return (
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
                f'y2="{y2}" stroke="{_DIFF_COLOR}" stroke-width="1.2" '
                f'marker-end="url(#arrow)"{dash}/>'
            )
        if kind == "exotic":
            cx = (x(a.degree) + x(b.degree)) / 2 + 0.55 * _CELL
            cy = (y(a.filtration) + y(b.filtration)) / 2
            return (
                f'<path d="M {x1} {y1} Q {_fmt(cx)} {_fmt(cy)} '
                f'{x2} {y2}" fill="none" '
                f'stroke="{_COLOR["exotic"]}" stroke-width="1.2"{dash}/>'
            )
        return (
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
            f'y2="{y2}" stroke="{_COLOR[kind]}" '
            f'stroke-width="1.2"{dash}/>'
        )

    def lines() -> Iterator[str]:
        # lines repeat a few geometries many times: format each once
        seen: dict[tuple, str] = {}
        for kind, src, dst in doc.lines:
            a, b = dots[src], dots[dst]
            key = (kind, a.degree, a.filtration, b.degree, b.filtration, a.overlay or b.overlay)
            record = seen.get(key)
            if record is None:
                record = seen[key] = line(kind, a, b, key[-1])
            yield record

    yield from _blocks(lines())
    yield from _blocks(
        f'<circle cx="{xs[d.degree]}" cy="{ys[d.filtration]}" r="3" '
        f'fill="{"#ffffff" if d.overlay else "#000000"}" '
        f'stroke="#000000" stroke-width="1"><title>{d.label} '
        f"({d.degree}, {d.filtration})</title></circle>"
        for d in dots
    )
    yield "</svg>\n"


# ---------------------------------------------------------------------------
# TikZ
# ---------------------------------------------------------------------------


def render_tikz(doc: ChartDocument) -> Iterator[str]:
    """Deterministic tikzpicture body, yielded in blocks (same layout
    conventions as the SVG, in chart cells: x = hi - degree, y = filtration)."""
    lo, hi = doc.window
    dots = doc.dots
    head = [
        f"% chart document: p={doc.prime} window=[{lo},{hi}] source={doc.source}",
        "\\begin{tikzpicture}[scale=.45]",
    ]
    tick = 2 * doc.prime
    first = lo + (-lo) % tick
    for n in range(first, hi + 1, tick):
        head.append(
            "\\node[font=\\tiny, below] at (%d,-.4) {$%d$};" % (hi - n, n)
        )
    yield from _blocks(head)

    def line(l: DocLine) -> str:
        a, b = dots[l.src], dots[l.dst]
        pa = "(%d,%d)" % (hi - a.degree, a.filtration)
        pb = "(%d,%d)" % (hi - b.degree, b.filtration)
        dashed = a.overlay or b.overlay
        opts = ["dashed"] if dashed else []
        if l.kind.startswith("differential"):
            opts += ["->", "blue"]
            return "\\draw[%s] %s -- %s;" % (",".join(opts), pa, pb)
        if l.kind == "exotic":
            opts += ["red"]
            return "\\draw[%s] %s to[bend right=35] %s;" % (",".join(opts), pa, pb)
        return "\\draw%s %s -- %s;" % ("[%s]" % ",".join(opts) if opts else "", pa, pb)

    yield from _blocks(map(line, doc.lines))
    yield from _blocks(
        "\\%s (%d,%d) circle (3.2pt);"
        % ("draw" if d.overlay else "fill", hi - d.degree, d.filtration)
        for d in dots
    )
    yield "\\end{tikzpicture}\n"

"""Serialization-ready chart documents and their SVG/TikZ renderings.

A ChartDocument flattens a chart into a list of dots (codegree, filtration,
label) plus its lines, which reference dots by index.  Line kinds:

    "v"                diagonal v-multiplication within a tower
    "h0"               p-multiplication visible in filtration (vertical)
    "exotic"           p-multiplication with a filtration jump (curved)
    "differential(r)"  a d_r arrow on the E2 overlay

Documents come from two sources: the closed-form ku charts ("closed-form")
and the Adams E2 window with its replayed differentials ("einfty-overlay").
Both builders read every line endpoint off tower runs (a window range of a
and the index of the a = 0 dot); the closed-form one flags the A-minus-B
overlay in that pass.  A builder sorts its dots once, then walks them in
sorted order and writes each line leaving a dot straight into its kind's
columns, so the lines come out in canonical order with no sort of their own.

Rendering follows the chart conventions used throughout: codegrees increase
from right to left, filtration increases bottom to top.  Everything is
deterministic -- dots sorted by (degree, filtration, label), lines by (kind,
endpoints), no timestamps -- so identical inputs give byte-identical output.
DocDot is a named tuple whose field order is that canonical key, so dots
sort natively; a document holds its lines as one pair of array('i') columns
(src, dst) per kind, in kind order, and line_records() spells them as
DocLine records.  render_json writes exactly the text of
json.dumps(document, indent=1, sort_keys=True) and a newline, but formats it
one dot or line record at a time instead of through the pure-Python indent
encoder; strings go through json's own escaper, encode_basestring_ascii,
which is what json.dumps calls on a str.  to_json returns that text whole,
without the newline, as a str.

render_json, render_svg and render_tikz are generators: they yield the text
in blocks of a few thousand records (the header and axis, the lines, the
dots, the closing tag), and "".join of the blocks is the whole document, so
a caller writes a chart block by block and never holds all of its text.
The SVG writer formats each distinct line geometry once.
"""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, le
from typing import Iterable, Iterator, NamedTuple

from .adams import Key, e2_window, h0_mate, run_labels
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
    """One line of a document, as ChartDocument.line_records spells it."""

    kind: str
    src: int
    dst: int


_OVERLAY = ',\n   "overlay": true'  # the key a dot record carries only when set
_BLOCK = 2048  # records per yielded block


def _ints(column) -> array:
    """A column of dot indices as an array('i'), copied only if it is not
    one already."""
    return column if isinstance(column, array) and column.typecode == "i" else array("i", column)


class ChartDocument:
    """A canonical chart document.  dots is a sorted list of DocDots, and
    lines maps each line kind, in string order (so differential(10) comes
    before differential(2)), to its (src, dst) columns of dot indices, the
    (src, dst) pairs ascending; a kind with no line is left out.  The
    constructor checks that form in linear time and raises ValueError where
    it fails: it sorts and remaps nothing.  Columns given as other int
    sequences are copied into array('i')s."""

    def __init__(self, prime: int, window: tuple[int, int], source: str, dots=(), lines=()):
        self.prime, self.window, self.source = prime, window, source
        self.dots = dots if isinstance(dots, list) else list(dots)
        self.lines = {kind: (_ints(src), _ints(dst)) for kind, (src, dst) in dict(lines).items()}
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the document is canonical (see the class
        docstring)."""
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        lo, hi = self.window
        if lo > hi:
            raise ValueError("empty window")
        dots = self.dots
        if not all(map(le, dots, islice(dots, 1, None))):
            raise ValueError("dots are not in canonical order")
        # sorted dots ascend in degree: the first and last bound them all
        for d in dots[:1] + dots[-1:]:
            if not (lo <= d.degree <= hi):
                raise ValueError(f"dot {d} outside window [{lo}, {hi}]")
        n_dots, last = len(dots), ""
        for kind, (src, dst) in self.lines.items():
            if not isinstance(kind, str) or not _KIND.fullmatch(kind):
                raise ValueError(f"unknown line kind {kind!r}")
            if kind <= last:
                raise ValueError(f"line kind {kind!r} is out of order")
            last = kind
            if len(src) != len(dst):
                raise ValueError(f"{kind} lines: {len(src)} sources for {len(dst)} targets")
            if not src:
                raise ValueError(f"line kind {kind!r} has no line")
            for column in (src, dst):
                low, high = min(column), max(column)
                if low < 0 or high >= n_dots:
                    raise ValueError(f"line endpoint {low if low < 0 else high} references no dot")
            if not all(map(le, zip(src, dst), zip(islice(src, 1, None), islice(dst, 1, None)))):
                raise ValueError(f"{kind} lines are not in canonical order")

    def line_records(self) -> Iterator[DocLine]:
        """Every line as a DocLine, in canonical order."""
        for kind, (src, dst) in self.lines.items():
            for s, d in zip(src, dst):
                yield DocLine(kind, s, d)

    # -- JSON -------------------------------------------------------------
    def to_json(self) -> str:
        """json.dumps of the document dict with indent=1 and sort_keys=True,
        byte for byte: render_json's blocks joined, less the final newline."""
        return "".join(render_json(self))[:-1]


def _json_list(records: Iterable[str]) -> Iterator[str]:
    """A list of already indented records, as json.dumps(indent=1) nests it
    one level below the top, _BLOCK records at a time."""
    records, sep = iter(records), "[\n"
    while block := list(islice(records, _BLOCK)):
        yield sep + ",\n".join(block)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n ]"


def render_json(doc: ChartDocument) -> Iterator[str]:
    """The canonical JSON text and its newline, yielded in blocks (see the
    module docstring)."""
    enc = encode_basestring_ascii  # what json.dumps calls on a str
    yield '{\n "dots": '
    yield from _json_list(
        f'  {{\n   "degree": {d.degree},\n   "filtration": {d.filtration},\n'
        f'   "label": {enc(d.label)}{_OVERLAY if d.overlay else ""}\n  }}'
        for d in doc.dots
    )
    yield ',\n "lines": '
    yield from _json_list(
        f'  {{\n   "dst": {d},\n   "kind": {kind},\n   "src": {s}\n  }}'
        for kind, (src, dst) in zip(map(enc, doc.lines), doc.lines.values())
        for s, d in zip(src, dst)
    )
    lo, hi = doc.window
    yield (
        f',\n "prime": {doc.prime},\n "schema_version": {SCHEMA_VERSION},\n'
        f' "source": {enc(doc.source)},\n "window": [\n  {lo},\n  {hi}\n ]\n}}\n'
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _columns() -> tuple[array, array]:
    return array("i"), array("i")


def _sorted(dots: list[DocDot]) -> tuple[list[DocDot], array, array]:
    """The dots sorted, with order (the building index of each sorted dot)
    and rank (the sorted index of each dot in building order)."""
    order = array("i", sorted(range(len(dots)), key=dots.__getitem__))
    rank = array("i", [0]) * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    return [dots[i] for i in order], order, rank


def _by_kind(columns: dict) -> dict:
    """The builder's columns in kind order, less the kinds with no line."""
    return {kind: columns[kind] for kind in sorted(columns) if columns[kind][0]}


def _chart_dots_and_lines(chart: Chart, lo: int, hi: int, base: Chart | None = None):
    """Window dots of a closed-form chart, sorted, with the columns of its
    v-lines and p-edge lines, read off the towers' window runs.  With a base
    chart, v^a . g is flagged as overlay unless the base has a tower on g
    taller than a (towers sit at filtration 0, so g and a fix the dot)."""
    step = 2 * (chart.p - 1)
    tall: dict = {}  # generator -> the base's tallest tower on it
    for t in base.towers if base is not None else ():
        tall[t.gen] = max(tall.get(t.gen, 0), t.height)
    # runs[tid]: (building index of the tower's a = 0 dot, window range of its a)
    runs, dots, tower_of = [], [], array("i")
    for tid, t in enumerate(chart.towers):
        gen, top = t.gen.render(), t.gen_degree
        run, first = tower_dots(top, t.height, step, lo, hi), len(dots)
        runs.append((first - run.start, run))
        tower_of += array("i", [tid]) * len(run)
        h = t.height if base is None else tall.get(t.gen, 0)
        dots += [DocDot(top - step * a, a, v_label(gen, a), a >= h) for a in run]
    dots, order, rank = _sorted(dots)
    columns = defaultdict(_columns)
    v_src, v_dst = columns["v"]
    edge_at = chart.edge_at
    # each dot's lines in sorted order: one v-line and, a chart having at
    # most one edge per source dot, its targets sorted
    for new, old in enumerate(order):
        tid = tower_of[old]
        zero, run = runs[tid]
        a = old - zero
        if a + 1 < run.stop:
            v_src.append(new)
            v_dst.append(rank[old + 1])
        e = edge_at((tid, a))
        if e is not None:  # targets share the source's degree: in the window with it
            src, dst = columns[e.kind]
            for end in sorted(rank[runs[t][0] + b] for t, b in e.dst):
                src.append(new)
                dst.append(end)
    return dots, _by_kind(columns)


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
    # each window tower's run: (building index of its a = 0 dot, window range of a)
    runs: dict[Key, tuple[int, range]] = {}
    dots: list[DocDot] = []
    run_of = array("i")
    for key, n0, s0, run in page.window_runs():
        run_of += array("i", [len(runs)]) * len(run)
        runs[key] = (len(dots) - run.start, run)
        dots += [DocDot(n0 - w * a, s0 + a, lab) for a, lab in zip(run, run_labels(p, key, run))]

    # the lines leaving each run's dots, at most one of each kind per dot:
    # (first, stop, offset, columns) draws dot i to dot i + offset for
    # first <= i < stop, building indices
    columns = defaultdict(_columns)
    rules = []
    for key, (base, run) in runs.items():
        out = [(base + run.start, base + run.stop - 1, 1, columns["v"])]
        # h0 . v^a (key) = v^(a + shift) (mate), drawn where both dots are
        h0 = h0_mate(p, key)
        if h0 is not None and h0[0] in runs:
            (mate_base, mate_run), shift = runs[h0[0]], h0[1]
            lo, hi = max(run.start, mate_run.start - shift), min(run.stop, mate_run.stop - shift)
            out.append((base + lo, base + hi, mate_base + shift - base, columns["h0"]))
        rules.append(out)
        if run.start:
            continue  # arrows leave only towers whose a = 0 dot is drawn
        role, _, r, e0, partner = page.fate(key)
        if role == "source" and partner in runs:
            (tgt_base, tgt_run), kind = runs[partner], f"differential({r})"
            lo, hi = max(0, tgt_run.start - e0), min(run.stop, tgt_run.stop - e0)
            out.append((base + lo, base + hi, tgt_base + e0 - base, columns[kind]))
    dots, order, rank = _sorted(dots)
    for new, old in enumerate(order):  # each dot's lines, in sorted order
        for first, stop, offset, (src, dst) in rules[run_of[old]]:
            if first <= old < stop:
                src.append(new)
                dst.append(rank[old + offset])
    return ChartDocument(p, (n_lo, n_hi), "einfty-overlay", dots, _by_kind(columns))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_CELL = 16
_MARGIN = 34
_COLOR = {"v": "#000000", "h0": "#000000", "exotic": "#cc0000"}
_DIFF_COLOR = "#1144bb"


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
        for kind, (src, dst) in doc.lines.items():
            seen: dict[tuple, str] = {}
            for a, b in zip(map(dots.__getitem__, src), map(dots.__getitem__, dst)):
                key = (a.degree, a.filtration, b.degree, b.filtration, a.overlay or b.overlay)
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

    yield from _blocks(map(line, doc.line_records()))
    yield from _blocks(
        "\\%s (%d,%d) circle (3.2pt);"
        % ("draw" if d.overlay else "fill", hi - d.degree, d.filtration)
        for d in dots
    )
    yield "\\end{tikzpicture}\n"

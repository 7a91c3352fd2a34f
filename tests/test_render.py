import hashlib
import json
import re
import tracemalloc
from array import array
from collections import Counter
from functools import lru_cache
from operator import attrgetter

import pytest

from kuengine import cli, render
from kuengine.adams import dot_label, e2_window, fate
from kuengine.chart import Chart, Tower, tower_dots, v_label
from kuengine.modules import build_A, build_B, build_S
from kuengine.monomial import Monomial
from kuengine.render import (
    SCHEMA_VERSION,
    ChartDocument,
    DocDot,
    DocLine,
    document_from_chart,
    document_from_einfty,
    render_json,
    render_svg,
    render_tikz,
)
from test_adams import any_tower, page_keys

# Hand-extracted (codegree, filtration) positions of the solid dots in the
# reference rendering of the k = 5 even block at p = 2, drawn over the window
# [68, 136].  The drawing truncates the top z5 tower at the picture edge --
# solid through (78, 26), then a dashed continuation with a single marker dot
# at (68, 28) standing in for the real dots at (76,27)..(68,31).
FIGURE_K5_DOTS = [
    (68, 0), (68, 1), (68, 3), (68, 7), (68, 15), (68, 28), (70, 0),
    (70, 2), (70, 6), (70, 14), (72, 1), (72, 5), (72, 13), (74, 0),
    (74, 4), (74, 12), (76, 3), (76, 11), (78, 2), (78, 10), (78, 26),
    (80, 1), (80, 9), (80, 25), (82, 0), (82, 1), (82, 8), (82, 24),
    (84, 0), (84, 7), (84, 23), (86, 6), (86, 22), (88, 5), (88, 21),
    (90, 1), (90, 4), (90, 20), (92, 0), (92, 3), (92, 4), (92, 19),
    (94, 2), (94, 3), (94, 18), (96, 1), (96, 2), (96, 17), (98, 0),
    (98, 1), (98, 16), (100, 0), (100, 1), (100, 15), (102, 0), (102, 14),
    (104, 13), (106, 1), (106, 12), (108, 0), (108, 4), (108, 11), (110, 3),
    (110, 10), (110, 11), (112, 2), (112, 9), (112, 10), (114, 1), (114, 8),
    (114, 9), (116, 0), (116, 1), (116, 7), (116, 8), (118, 0), (118, 6),
    (118, 7), (120, 5), (120, 6), (122, 4), (122, 5), (124, 1), (124, 3),
    (124, 4), (126, 0), (126, 2), (126, 3), (126, 4), (128, 1), (128, 2),
    (128, 3), (130, 0), (130, 1), (130, 2), (132, 0), (132, 1), (134, 0),
    (134, 1), (136, 0),
]


def doc_from_json(text):
    """The round-trip reference reader: the document of canonical JSON
    text, its lines read straight into columns.  Raises ValueError for text
    that is not canonical.  json.loads parses the whole text first, one
    dict per dot and line record, so reading back the einfty 2/0:120/30
    document (8.5 MB of JSON, 7.2 MB held) peaks at 39.5 MB under
    tracemalloc; no command reads a chart back."""
    doc = json.loads(text)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    lines, kind = {}, None
    for l in doc["lines"]:
        if l["kind"] != kind:
            kind = l["kind"]
            if kind in lines:
                raise ValueError(f"the {kind!r} lines are not listed together")
            src, dst = lines[kind] = array("i"), array("i")
        src.append(l["src"])
        dst.append(l["dst"])
    dots = [
        DocDot(d["degree"], d["filtration"], d["label"], d.get("overlay", False))
        for d in doc["dots"]
    ]
    return ChartDocument(doc["prime"], tuple(doc["window"]), doc["source"], dots, lines)


def same_document(a, b):
    """Whether two documents hold the same prime, window, source, dots and
    lines."""
    fields = attrgetter("prime", "window", "source", "dots", "lines")
    return type(a) is type(b) is ChartDocument and fields(a) == fields(b)


def positions(doc):
    return Counter((d.degree, d.filtration) for d in doc.dots)


def svg(doc):
    return "".join(render_svg(doc))


def tikz(doc):
    return "".join(render_tikz(doc))


def test_a1_document_is_the_three_dot_chart():
    doc = document_from_chart(build_A(2, 1))
    assert [(d.degree, d.filtration, d.label) for d in doc.dots] == [
        (8, 0, "y0 z0"),
        (8, 1, "v z1"),
        (10, 0, "z1"),
    ]
    assert list(doc.line_records()) == [
        ("exotic", 0, 1),
        ("v", 2, 1),
    ]
    assert doc.lines == {
        "exotic": (array("i", [0]), array("i", [1])),
        "v": (array("i", [2]), array("i", [1])),
    }


def test_s58_document_has_three_height_six_towers():
    doc = document_from_chart(build_S(2, 5, 8))
    assert len(doc.dots) == 18
    by_base = Counter(d.label.split(" ")[-1] for d in doc.dots)
    assert sorted(by_base.values()) == [6, 6, 6]
    # v-lines chain each tower (3 * 5); h0 steps between consecutive towers
    # at matching levels (2 * 5)
    assert Counter(l.kind for l in doc.line_records()) == {"v": 15, "h0": 10}
    for l in doc.line_records():
        if l.kind == "h0":
            assert doc.dots[l.dst].filtration == doc.dots[l.src].filtration + 1


def test_b5_and_a5_match_the_reference_rendering():
    fig = Counter(FIGURE_K5_DOTS)
    b5 = positions(document_from_chart(build_B(2, 5), (68, 136)))
    # every solid dot of the k=5 module appears in the drawing
    assert not b5 - fig
    a5 = positions(document_from_chart(build_A(2, 5), (68, 136)))
    marker = Counter({(68, 28): 1})
    truncated_tail = Counter({(76, 27): 1, (74, 28): 1, (72, 29): 1, (70, 30): 1, (68, 31): 1})
    assert a5 == fig - marker + truncated_tail


def test_overlay_flags_exactly_the_a_minus_b_dots():
    doc = document_from_chart(build_A(2, 5), base=build_B(2, 5))
    flagged = positions_with_flag(doc, True)
    plain = positions_with_flag(doc, False)
    b5 = positions(document_from_chart(build_B(2, 5), doc.window))
    a5 = positions(document_from_chart(build_A(2, 5), doc.window))
    assert plain == b5
    assert flagged == a5 - b5


def positions_with_flag(doc, flag):
    return Counter(
        (d.degree, d.filtration) for d in doc.dots if d.overlay is flag
    )


@pytest.mark.parametrize("p,hi,s_max", [(2, 40, 10), (3, 60, 8)])
def test_einfty_document_line_geometry(p, hi, s_max):
    doc = document_from_einfty(p, 0, hi, s_max)
    w = 2 * (p - 1)
    seen = set()
    for l in doc.line_records():
        a, b = doc.dots[l.src], doc.dots[l.dst]
        if l.kind == "v":
            assert (b.degree, b.filtration) == (a.degree - w, a.filtration + 1)
        elif l.kind == "h0":
            assert (b.degree, b.filtration) == (a.degree, a.filtration + 1)
        else:
            assert l.kind.startswith("differential(")
            r = int(l.kind[len("differential(") : -1])
            assert r >= 2
            assert (b.degree, b.filtration) == (a.degree + 1, a.filtration + r)
            seen.add(r)
    assert seen, "window contains no differentials?"
    # labels are unique on the E2 page
    labels = [d.label for d in doc.dots]
    assert len(set(labels)) == len(labels)


def test_document_roundtrip_and_canonical_order():
    doc = document_from_einfty(2, 0, 30, 8)
    text = doc.to_json()
    again = doc_from_json(text)
    assert again.to_json() == text
    keys = [tuple(d) for d in doc.dots]
    assert keys == sorted(keys)
    lkeys = [tuple(l) for l in doc.line_records()]
    assert lkeys == sorted(lkeys)


def test_document_validation():
    dot = DocDot(10, 0, "x")
    with pytest.raises(ValueError, match="unknown source"):
        ChartDocument(2, (0, 20), "nonsense", [dot], {})
    with pytest.raises(ValueError, match="empty window"):
        ChartDocument(2, (5, 0), "closed-form", [], {})
    with pytest.raises(ValueError, match="outside window"):
        ChartDocument(2, (0, 5), "closed-form", [dot], {})
    for src, dst, bad in ((0, 1, 1), (1, 0, 1), (-1, 0, -1), (0, -2, -2)):
        with pytest.raises(ValueError, match=f"line endpoint {bad} references no dot"):
            ChartDocument(2, (0, 20), "closed-form", [dot], {"v": ([src], [dst])})
    for kind in ("d3", "differential(x)", "h1"):
        with pytest.raises(ValueError, match="unknown line kind"):
            ChartDocument(2, (0, 20), "closed-form", [dot], {"v": ([0], [0]), kind: ([0], [0])})
    # validate() keeps both checks for a document edited after construction
    doc = ChartDocument(2, (0, 20), "closed-form", [dot], {"v": ([0], [0])})
    doc.validate()
    for column, end in zip(doc.lines["v"], (0, 1)):
        column.append(end)
    with pytest.raises(ValueError, match="line endpoint 1 references no dot"):
        doc.validate()
    doc.lines["v"] = (array("i", [0]), array("i", [0]))
    doc.lines["d3"] = (array("i", [0]), array("i", [0]))
    with pytest.raises(ValueError, match="unknown line kind 'd3'"):
        doc.validate()


_A, _B = DocDot(2, 0, "a"), DocDot(4, 0, "b")
# (dots, lines) the constructor refuses, by the message it raises
NON_CANONICAL = {
    "dots are not in canonical order": ([_B, _A], {"v": ([0], [1])}),
    "v lines are not in canonical order": ([_A, _B], {"v": ([1, 0], [0, 1])}),
    "line endpoint 2 references no dot": ([_A, _B], {"v": ([0], [2])}),
    "unknown line kind 'd3'": ([_A, _B], {"d3": ([0], [1])}),
    "line kind 'h0' is out of order": ([_A, _B], {"v": ([0], [1]), "h0": ([0], [1])}),
    "line kind 'v' has no line": ([_A, _B], {"v": ([], [])}),
    "v lines: 2 sources for 1 targets": ([_A, _B], {"v": ([0, 0], [1])}),
}


def raw_json(dots, lines):
    """JSON text of a document with these dots and line columns, in the
    order given."""
    return json.dumps(
        {
            "schema_version": 1,
            "prime": 2,
            "window": [0, 20],
            "source": "closed-form",
            "dots": [
                {"degree": d.degree, "filtration": d.filtration, "label": d.label} for d in dots
            ],
            "lines": [
                {"kind": kind, "src": s, "dst": d}
                for kind, (src, dst) in lines.items()
                for s, d in zip(src, dst)
            ],
        },
        indent=1,
        sort_keys=True,
    )


@pytest.mark.parametrize("message", sorted(NON_CANONICAL))
def test_a_document_that_is_not_canonical_is_refused(message):
    dots, lines = NON_CANONICAL[message]
    with pytest.raises(ValueError, match=re.escape(message)):
        ChartDocument(2, (0, 20), "closed-form", dots, lines)
    # JSON spells no kind without a line, and a line record has both ends
    if all(src and len(src) == len(dst) for src, dst in lines.values()):
        with pytest.raises(ValueError, match=re.escape(message)):
            doc_from_json(raw_json(dots, lines))


def test_from_json_refuses_a_kind_listed_twice():
    text = raw_json([_A, _B], {"h0": ([0], [1]), "v": ([0], [1])})
    assert doc_from_json(text).to_json() == text
    records = json.loads(text)
    records["lines"].append({"kind": "h0", "src": 1, "dst": 1})
    with pytest.raises(ValueError, match="the 'h0' lines are not listed together"):
        doc_from_json(json.dumps(records))


@pytest.mark.parametrize("message", sorted(NON_CANONICAL))
def test_the_cli_reports_a_document_that_is_not_canonical(message, monkeypatch, capsys):
    dots, lines = NON_CANONICAL[message]

    def build(chart, window, base=None):
        return ChartDocument(chart.p, (0, 20), "closed-form", dots, lines)

    monkeypatch.setattr(render, "document_from_chart", build)
    assert cli.main(["chart", "A:1", "--prime", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"kuengine: chart: {message}\n"


def test_renders_are_deterministic_and_right_to_left():
    doc = document_from_chart(build_A(2, 5))
    assert svg(doc) == svg(document_from_chart(build_A(2, 5)))
    text = tikz(doc)
    assert text == tikz(document_from_chart(build_A(2, 5)))
    # codegree 136 dot sits at tikz x = 0 (left edge), codegree 68 at x = 68
    assert "\\fill (0,0) circle" in text
    assert "\\node[font=\\tiny, below] at (0,-.4) {$136$};" in text
    assert "\\node[font=\\tiny, below] at (68,-.4) {$68$};" in text
    # overlay dots render open / dashed
    ov = tikz(document_from_chart(build_A(2, 5), base=build_B(2, 5)))
    assert "circle (3.2pt);" in ov and "\\draw (" in ov


def test_svg_contains_dots_and_kind_colors():
    doc = document_from_chart(build_A(2, 1))
    text = svg(doc)
    assert text.count("<circle") == 3
    assert "#cc0000" in text  # the exotic extension
    e = svg(document_from_einfty(2, 0, 20, 6))
    assert "marker-end" in e  # differential arrows


# sha256 of every rendering of four documents (closed form, the dashed
# overlay with exotic curves, E2 overlays at p = 2 and 3): any change to the
# emitted bytes (number formatting, line order, the trailing newline) fails.
PINNED_DOCUMENTS = {
    "A5": lambda: document_from_chart(build_A(2, 5)),
    "B5-over-A5": lambda: document_from_chart(build_A(2, 5), base=build_B(2, 5)),
    "einfty-2": lambda: document_from_einfty(2, 0, 40, 10),
    "einfty-3": lambda: document_from_einfty(3, 0, 60, 8),
}
PINNED_SHA256 = {
    ("A5", "svg"): "3ef79a90a06c19498419a8ec4ad4860b6eebdfb6bb192746ab7cf28613462967",
    ("A5", "tikz"): "0bd09f6650e21f22361d49ce7cb34164e82b2b5717b6baf439b11e43d4173968",
    ("A5", "json"): "7c12648cf9463030e05ac6bd46cd8ba3dff93c93099e5f1c339036d5ab96e93e",
    ("B5-over-A5", "svg"): "2d17aa388c6b59d3208af7d0491835363d9288c4eb5ed033cfa1c21d3fd50b0e",
    ("B5-over-A5", "tikz"): "f746942e10920c5d23c7625391fce019f70daf03a52db4b2da999042109531dc",
    ("B5-over-A5", "json"): "eaef18d2eb549625f01ad932a4ad4230113370f78f08641770d5b54ef6a12c9a",
    ("einfty-2", "svg"): "a95896484f01a6588f92d5199e9b00aee7820846e244aaa8ab53184f2239846d",
    ("einfty-2", "tikz"): "5791649424c105b188abcbd4686716e16a122d8cd81dd18a8859f604f74c3cc9",
    ("einfty-2", "json"): "bf92f3f82f6ec685f0593dd141269a2d74d2477abd21b5750903923136f55bae",
    ("einfty-3", "svg"): "a8367c6475f749d2436263afa3c04e79c05b63528830fad9b26fd21594e338a2",
    ("einfty-3", "tikz"): "d1dbcd2a7545afd0edba784f7a5d8e06b3106883123dc40f14683168ef01029b",
    ("einfty-3", "json"): "744b09e67b81fd5e2b0947c65b3617223222c4ad633805537cb13e8655adc44e",
}
# the writers yield blocks: their join is the document
RENDERERS = {"svg": svg, "tikz": tikz, "json": ChartDocument.to_json}


@pytest.mark.parametrize("name", sorted(PINNED_DOCUMENTS))
def test_emitted_bytes_are_pinned(name):
    doc = PINNED_DOCUMENTS[name]()
    for fmt, render in RENDERERS.items():
        got = hashlib.sha256(render(doc).encode()).hexdigest()
        assert got == PINNED_SHA256[(name, fmt)], (name, fmt)


def test_writers_yield_a_chart_in_blocks():
    # A_8 has thousands of lines and dots: more than one block each, every
    # block ending in the newline the whole join puts after its last record
    doc = document_from_chart(build_A(2, 8))
    for render, head, tail in (
        (render_svg, "<svg ", "</svg>\n"),
        (render_tikz, "% chart document", "\\end{tikzpicture}\n"),
    ):
        blocks = list(render(doc))
        assert len(blocks) > 3, render
        assert blocks[0].startswith(head) and blocks[-1] == tail
        assert all(block.endswith("\n") and "\n\n" not in block for block in blocks)
    # the JSON blocks split the record lists between records
    blocks = list(render_json(doc))
    assert len(blocks) > 3 and max(map(len, blocks)) < len(doc.to_json()) / 2
    assert "".join(blocks) == doc.to_json() + "\n"
    # an empty document yields no empty block
    empty = ChartDocument(2, (0, 0), "closed-form", [], [])
    assert all(render_svg(empty)) and all(render_tikz(empty)) and all(render_json(empty))
    assert "".join(render_json(empty)) == empty.to_json() + "\n" == ref_to_json(empty) + "\n"


def traced_build(build):
    """The document build() returns, what it holds when finished and the
    peak of building it, both as tracemalloc counts them."""
    tracemalloc.start()
    try:
        doc = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return doc, held, peak


@lru_cache(maxsize=None)
def traced_einfty():
    """The line count of chart-emit's einfty document, what it holds and
    the peak of building it (traced_build), measured once."""
    document_from_einfty(2, 0, 120, 30)  # fill the tower caches first
    doc, held, peak = traced_build(lambda: document_from_einfty(2, 0, 120, 30))
    return sum(len(src) for src, _ in doc.lines.values()), held, peak


def test_an_einfty_document_keeps_one_copy_of_its_lines():
    # the builder writes each line straight into the document's columns:
    # holding the builder's (kind, src, dst) list beside the document's
    # DocLine list peaked at 2.0 times the finished document
    n_lines, held, peak = traced_einfty()
    assert n_lines > 80_000
    assert peak <= 1.7 * held, (peak, held)


def test_an_einfty_document_holds_its_lines_as_columns():
    # one DocLine per line, and the builder's tuples while they were sorted
    # and remapped, held 14.7 MB and peaked at 22.3 MB
    _, held, peak = traced_einfty()
    assert held <= 9 * 10**6 and peak <= 12 * 10**6, (held, peak)


def test_an_overlay_is_built_in_one_pass():
    # A_12 over B_12 with no document of the base and no copy of the dots:
    # the two-pass overlay peaked at 3.1 times the finished document
    base, ambient = build_B(2, 12), build_A(2, 12)
    doc, held, peak = traced_build(lambda: document_from_chart(ambient, base=base))
    assert any(d.overlay for d in doc.dots)
    assert peak <= 1.7 * held, (peak, held)


def test_writing_an_einfty_chart_never_holds_its_text(tmp_path):
    # chart-emit's einfty command: 12.9 MB of SVG, which the writer used to
    # hold whole, as every record string and their join (33 MB traced)
    doc = document_from_einfty(2, 0, 120, 30)
    target = tmp_path / "einfty.svg"
    tracemalloc.start()
    try:
        with cli._output(str(target)) as fh:
            fh.writelines(render_svg(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert size > 10**7
    assert peak < size / 2, (peak, size)


def test_writing_a_json_chart_never_holds_its_text(tmp_path):
    # chart-emit's A_11 command: its JSON, which to_json composes whole, is
    # written block by block
    doc = document_from_chart(build_A(2, 11))
    target = tmp_path / "a11.json"
    tracemalloc.start()
    try:
        with cli._output(str(target)) as fh:
            fh.writelines(render_json(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert size > 2 * 10**6 and target.read_text() == doc.to_json() + "\n"
    assert peak < size / 2, (peak, size)


# ---------------------------------------------------------------------------
# reference implementations: the record writer and the run-indexed builders
# must agree with the straightforward versions they replace
# ---------------------------------------------------------------------------


def ref_to_json(doc):
    """The whole-document json.dumps that to_json reproduces byte for byte."""
    return json.dumps(
        {
            "schema_version": 1,
            "prime": doc.prime,
            "window": list(doc.window),
            "source": doc.source,
            "dots": [
                {
                    "degree": d.degree,
                    "filtration": d.filtration,
                    "label": d.label,
                    **({"overlay": True} if d.overlay else {}),
                }
                for d in doc.dots
            ],
            "lines": [{"kind": l.kind, "src": l.src, "dst": l.dst} for l in doc.line_records()],
        },
        indent=1,
        sort_keys=True,
    )


JSON_DOCUMENTS = {
    "A11": lambda: document_from_chart(build_A(2, 11)),
    "B5-over-A5": lambda: document_from_chart(build_A(2, 5), base=build_B(2, 5)),
    "einfty-2": lambda: document_from_einfty(2, 0, 40, 10),
    "einfty-3": lambda: document_from_einfty(3, 0, 60, 8),
    "empty": lambda: ChartDocument(2, (0, 0), "closed-form", [], []),
    "escaped": lambda: ChartDocument(
        3,
        (-4, 9),
        "einfty-overlay",
        [DocDot(-4, 2, 'q "v"\\ é\nz', True), DocDot(9, 0, "x")],
        {"differential(3)": ([1], [0])},
    ),
}


@pytest.mark.parametrize("name", sorted(JSON_DOCUMENTS))
def test_to_json_matches_the_whole_document_dump(name):
    doc = JSON_DOCUMENTS[name]()
    text = doc.to_json()
    assert text == ref_to_json(doc)
    assert same_document(doc_from_json(text), doc)


def test_to_json_covers_overlay_flags_and_empty_lists():
    assert any(d.overlay for d in JSON_DOCUMENTS["B5-over-A5"]().dots)
    empty = JSON_DOCUMENTS["empty"]().to_json()
    assert '"dots": []' in empty and '"lines": []' in empty
    escaped = JSON_DOCUMENTS["escaped"]().to_json()
    assert '"label": "q \\"v\\"\\\\ \\u00e9\\nz"' in escaped


def test_from_json_rejects_unknown_schema_versions():
    text = document_from_chart(build_A(2, 1)).to_json()
    doc = json.loads(text)
    for version in (0, 2, "1", None):
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="unsupported schema_version"):
            doc_from_json(json.dumps(doc))
    del doc["schema_version"]
    with pytest.raises(ValueError, match="unsupported schema_version None"):
        doc_from_json(json.dumps(doc))


def canonical(prime, window, source, dots, lines):
    """The document of dots in any order and (kind, src, dst) lines indexing
    them: the sort and remap that the builders, which write each line
    straight into its place, no longer make."""
    order = sorted(range(len(dots)), key=dots.__getitem__)
    rank = {old: new for new, old in enumerate(order)}
    columns = {}
    for kind, src, dst in sorted((kind, rank[src], rank[dst]) for kind, src, dst in lines):
        for column, end in zip(columns.setdefault(kind, ([], [])), (src, dst)):
            column.append(end)
    return ChartDocument(prime, window, source, [dots[i] for i in order], columns)


def ref_document_from_einfty(p, n_lo, n_hi, s_max):
    """The (key, a)-indexed einfty builder the run-indexed one replaced,
    with its own walk of the window cut."""
    page = e2_window(p, n_lo, n_hi, s_max)
    index = {}
    dots = []
    for key in page_keys(page):
        tw = any_tower(p, key)
        h = tw.height
        cap = page.s_max - tw.s0 + 1
        cap = cap if h is None else min(h, cap)
        for a in tower_dots(tw.n0, cap, page.w, page.n_lo, page.n_hi):
            index[(key, a)] = len(dots)
            dots.append(DocDot(tw.n0 - page.w * a, tw.s0 + a, dot_label(p, key, a)))
    lines = []
    for (key, a), i in index.items():
        nxt = page.v_op(key, a)
        if nxt is not None and (nxt in index):
            lines.append(DocLine("v", i, index[nxt]))
        h0 = page.h0_op(key, a)
        if h0 is not None and (h0 in index):
            lines.append(DocLine("h0", i, index[h0]))
    for key in page_keys(page):
        f = fate(p, key)
        if f.role != "source" or f.partner not in page:
            continue
        a = 0
        while (key, a) in index:
            tgt = (f.partner, f.e0 + a)
            if tgt in index:
                lines.append(DocLine(f"differential({f.r})", index[(key, a)], index[tgt]))
            a += 1
    return canonical(p, (n_lo, n_hi), "einfty-overlay", dots, lines)


@pytest.mark.parametrize(
    "window",
    [
        (2, 0, 120, 30),
        (2, 17, 93, 11),
        (3, 5, 61, 3),
        (5, 0, 300, 10),
        (7, 0, 400, 8),
        (2, 0, 40, 10),
        (3, 0, 60, 12),
    ],
)
def test_einfty_builder_matches_the_dot_indexed_reference(window):
    # the builder spells a tower's generator once per run and draws its h0
    # lines per run (adams.h0_mate); the reference asks h0_op and dot_label
    # at every dot
    got, want = document_from_einfty(*window), ref_document_from_einfty(*window)
    assert got.dots == want.dots
    assert got.lines == want.lines
    kinds = Counter(kind.split("(")[0] for kind in got.lines)
    assert kinds["v"] and kinds["h0"] and kinds["differential"], kinds


def ref_chart_dots_and_lines(chart, lo, hi):
    """The (tower, a)-indexed closed-form builder the run-indexed one
    replaced."""
    step = 2 * (chart.p - 1)
    index = {}
    dots = []
    for tid, t in enumerate(chart.towers):
        gen, top = t.gen.render(), t.gen_degree
        for a in tower_dots(top, t.height, step, lo, hi):
            index[(tid, a)] = len(dots)
            dots.append(DocDot(top - step * a, a, v_label(gen, a)))
    lines = [("v", i, index[(tid, a + 1)]) for (tid, a), i in index.items() if (tid, a + 1) in index]
    for e in chart.edges:
        if e.src in index:
            lines += [(e.kind, index[e.src], index[d]) for d in e.dst if d in index]
    return dots, lines


def ref_document_overlay(base, ambient, window):
    """The two-pass overlay the one-pass builder replaced: the base's own
    window dots, then every ambient dot they lack flagged."""
    base_dots, _ = ref_chart_dots_and_lines(base, *window)
    base_keys = {d[:3] for d in base_dots}
    dots, lines = ref_chart_dots_and_lines(ambient, *window)
    flagged = [d._replace(overlay=d[:3] not in base_keys) for d in dots]
    return canonical(ambient.p, window, "closed-form", flagged, lines)


@pytest.mark.parametrize(
    "p,k", [(2, k) for k in range(3, 10)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
)
def test_overlay_matches_the_two_pass_reference(p, k):
    base, ambient = build_B(p, k), build_A(p, k)
    lo, hi = document_from_chart(ambient).window
    # a window from just above the lowest dot to half-way up: it cuts towers
    # of both charts in the middle and keeps some of the overlay's dots
    cut = (lo + 1, (lo + hi) // 2 + 1)
    step = 2 * (p - 1)
    for c in (base, ambient):
        assert any(
            0 < len(tower_dots(t.gen_degree, t.height, step, *cut)) < t.height
            for t in c.towers
        )
    for window in ((lo, hi), cut):
        got = document_from_chart(ambient, window, base=base)
        assert same_document(got, ref_document_overlay(base, ambient, window)), window
        assert any(d.overlay for d in got.dots) and not all(d.overlay for d in got.dots)
        dots, lines = ref_chart_dots_and_lines(ambient, *window)
        assert same_document(
            document_from_chart(ambient, window), canonical(p, window, "closed-form", dots, lines)
        )


def test_overlay_reads_the_tallest_base_tower_on_a_generator():
    # no core chart repeats a generator, so make one that does: the base's
    # towers on g have heights 1 and 3 (either order), the ambient's has 5
    g, h = Monomial.gen(2, "z", 3), Monomial.gen(2, "z", 4)
    ambient = Chart(2, [Tower(g, 5), Tower(h, 2)])
    for heights in ((1, 3), (3, 1)):
        base = Chart(2, [Tower(g, height) for height in heights])
        window = (0, h.degree)
        doc = document_from_chart(ambient, window, base=base)
        assert same_document(doc, ref_document_overlay(base, ambient, window))
        flagged = {d.label for d in doc.dots if d.overlay}
        assert flagged == {"v^3 z3", "v^4 z3", "z4", "v z4"}

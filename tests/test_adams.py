"""Spectral sequence engine: E2 window, differential families, replay, audits."""

import dataclasses
import hashlib
import json
from collections import Counter
from typing import NamedTuple

import pytest

from kuengine import adams
from kuengine.adams import (
    BigradedPage,
    _sp_shape,
    _z_runs,
    Fate,
    WindowError,
    classify,
    dot_label,
    e2_dims,
    e2_window,
    einfty_audit,
    ext_audit,
    fate,
    h0_base,
    matching_audit,
    pair_towers,
    run_differentials,
    run_labels,
    tower,
)
from kuengine import margolis
from kuengine.chart import tower_dots, v_label
from kuengine.margolis import build_HK2, ext_bruteforce
from kuengine.model import free_part_ps
from kuengine.modules import full_chart
from kuengine.monomial import (
    Monomial,
    k0,
    q_degree,
    z_comp,
    z_decompose_dict,
    z_degree,
)
from kuengine.padic import nu
from test_monomial import ref_lambda_exponents


def main_key(p, b, eps, **kw):
    m = Monomial(p, **kw)
    return ("main", b, eps, *z_decompose_dict(p, m.z_dict()))


class RefTower(NamedTuple):
    """The references' record of one tower or coset."""

    key: tuple
    n0: int  # base codegree (the a = 0 dot)
    s0: int  # base filtration
    height: int | None  # E2 height (None = v-free)


def any_tower(p, key):
    """The RefTower of any key: tower(p, key) based at s = 0, with an SP
    key's _sp_shape height, or the v-free coset its integers spell."""
    if key[0] == "h0":
        return RefTower(key, *h0_base(p, *key[1:]), None)
    return RefTower(key, tower(p, key), 0, _sp_shape(p, key)[2] if key[0] == "sp" else None)


# -- first differentials and the four families --------------------------------


def test_d2_on_y1():
    assert fate(2, ("h0", 0, 1, 0)) == ("source", "F1", 2, 0, ("h0", 0, 0, 1))  # -> v^2 q


def test_d3_on_y1_squared():
    f = fate(2, ("h0", 0, 2, 0))
    assert (f.family, f.r) == ("F1", 3)
    assert f.partner == ("h0", 1, 1, 1)  # h0 v^2 q y1


def test_d2_on_y1_odd():
    f = fate(3, ("h0", 0, 1, 0))
    assert (f.family, f.r) == ("F1", 2)
    assert f.partner == ("h0", 1, 0, 1)  # h0 v q


def test_fate_is_classify_for_a_tower_and_h0_fate_for_a_coset():
    key = main_key(2, 0, 0, zs=((2, 1),))
    assert fate(2, key) is classify(2, key)
    assert fate(2, ("h0", 0, 1, 1)) == ("source", "F3", 2, 4, key)  # v^2 q y1 -> z2
    for bad in (tower, classify):
        with pytest.raises(ValueError):
            bad(2, ("h0", 0, 1, 1))


@pytest.mark.parametrize("p", (2, 3))
def test_fate_returns_a_fate_for_every_key_family(p):
    b, eps = COLUMN_BOTTOM[p]  # c = 0 is an F3 source, c = 2 an F1 target
    keys = {
        "main": main_key(p, 0, 0, zs=((k0(p), 1),)),
        "sp": ("sp", "x8" if p == 2 else "yz", 1),
        "F1 source": ("h0", 0, 1, 0),
        "F1 target": ("h0", 2, b, eps),
        "F3 source": ("h0", 0, b, eps),
    }
    fates = {name: fate(p, key) for name, key in keys.items()}
    assert all(type(f) is Fate for f in fates.values())
    assert [(f.role, f.family) for f in fates.values()] == [
        ("target", "F3"), ("survives", None), ("source", "F1"), ("target", "F1"),
        ("source", "F3"),
    ]


def test_bare_z2_truncated_to_its_chart_height():
    f = classify(2, main_key(2, 0, 0, zs=((2, 1),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F3", 2, 4)
    assert f.partner == ("h0", 0, 1, 1)  # v^2 q y1


def test_z2_squared_is_an_f4_target():
    f = classify(2, main_key(2, 0, 0, zs=((2, 2),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F4", 2, 2)
    assert f.partner == main_key(2, 1, 1, zs=((2, 1),))  # q y1 z2


def test_q_z2_killed_from_y1_z2():
    f = classify(2, main_key(2, 0, 1, zs=((2, 1),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F2", 2, 2)
    assert f.partner == main_key(2, 1, 0, zs=((2, 1),))


def test_bare_z3_truncated_at_eight():
    f = classify(2, main_key(2, 0, 0, zs=((3, 1),)))
    assert (f.family, f.r, f.e0) == ("F3", 5, 8)
    assert f.partner == ("h0", 1, 3, 1)  # h0 v^2 q y1^3


def test_bare_z1_truncated_at_p_for_odd_primes():
    f = classify(3, main_key(3, 0, 0, zs=((1, 1),)))
    assert (f.family, f.r, f.e0) == ("F3", 2, 3)
    assert f.partner == ("h0", 0, 0, 1)  # v q


def test_special_towers_are_permanent_cycles():
    assert classify(2, ("sp", "x8", 3)).role == "survives"
    assert classify(2, ("sp", "x10", 0)).role == "survives"
    assert classify(3, ("sp", "yz", 2)).role == "survives"


def test_z_monomial_towers_are_never_sources():
    for p, n_hi in ((2, 80), (3, 80)):
        page = e2_window(p, 0, n_hi, 8)
        for key in page.towers:
            if key[0] == "main" and key[1] == 0 and key[2] == 0:
                assert classify(p, key).role == "target"


# -- window contents -----------------------------------------------------------


def page_keys(page):
    """Every key of the page: its per-key towers, then the h0 block column
    by column."""
    block = (("h0", c, b, eps) for (b, eps), cs in page.columns.items() for c in cs)
    return [*page.towers, *block]


def test_the_page_walk_covers_both_parts():
    for p, n_hi, s_max in ((2, 120, 35), (3, 150, 30), (5, 300, 10)):
        page = e2_window(p, 0, n_hi, s_max)
        keys = page_keys(page)
        assert len(keys) == len(set(keys)) == len(page)
        assert list(page) == keys and all(k in page for k in keys)
        assert {k[0] for k in page.towers} == {"main", "sp"}
        assert all(cs == range(s_max + 1) for cs in page.columns.values())
        walked = [k for k, *_ in page.window_runs()]
        seen = set(walked)
        assert seen <= set(keys) and any(k not in page.towers for k in walked)
        assert [k for k in keys if k in seen] == walked  # the page's own order
        for key, n0, s0, _ in page.window_runs():
            assert (n0, s0) == (any_tower(p, key).n0, any_tower(p, key).s0)
            if key in page.towers:  # a per-key tower sits at s = 0
                assert (n0, s0) == (page.towers[key], 0)
        assert page.n_pad == n_hi + page.w * s_max
    outside = e2_window(2, 0, 40, 8)
    assert ("h0", 9, 1, 0) not in outside and ("h0", 0, 99, 0) not in outside
    assert ("h0", 0, 0, 0) not in outside


@pytest.mark.parametrize(
    "p, extra",
    (
        (3, (1, 1, 2, ())),  # z1^3 = z_comp(1, 2) read as z1 z1^2
        (2, (2, 2, 0, ())),  # z2 twice
        (2, (1, 1, 0, ())),  # z1, the x10 tower's z-part
    ),
)
def test_two_keys_spelling_one_label_raise(p, extra, monkeypatch):
    # e2_window checks keys, not labels: a z-part under a second
    # decomposition, or one below k0 as the SP towers have, would give two
    # towers one label
    real = adams._z_runs

    def one_more(p, budget):
        z = adams._z_of(p, *extra)
        return real(p, budget) + [(*extra, sum(x * z_degree(p, j) for j, x in z.items()))]

    e2_window(p, 0, 60, 8)
    monkeypatch.setattr(adams, "_z_runs", one_more)
    with pytest.raises(ValueError, match="not unique"):
        e2_window(p, 0, 60, 8)


def test_labels_are_unique_across_the_whole_page():
    # e2_window's own check spells only the per-key towers
    for p, n_hi, s_max in ((2, 120, 35), (3, 150, 30)):
        page = e2_window(p, 0, n_hi, s_max)
        labels = [dot_label(p, k, 0) for k in page_keys(page)]
        assert len(labels) == len(set(labels)) == len(page)


def ref_coset_label(p, c, b, eps, a):
    """Reference: the label of v^a on the coset h0^c (v^k0 q)^eps y1^b,
    spelled factor by factor."""
    factors = (("h0", c), ("v", k0(p) * eps + a), ("q", eps), ("y1", b))
    return " ".join(g if x == 1 else f"{g}^{x}" for g, x in factors if x)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_a_run_spells_the_labels_of_its_dots(p):
    run = range(5)
    for c in range(3):
        for b, eps in ((0, 1), (1, 0), (1, 1), (3, 0), (p, 1)):
            got = run_labels(p, ("h0", c, b, eps), run)
            assert got == [ref_coset_label(p, c, b, eps, a) for a in run]
    page = e2_window(p, 0, 60 * p, 4)
    assert {k[0] for k in page.towers} == {"main", "sp"}
    for key in page.towers:
        gen = ref_tower(p, key)[1]
        assert run_labels(p, key, range(2, 6)) == [v_label(gen, a) for a in range(2, 6)]
    assert run_labels(3, ("h0", 2, 3, 1), range(2)) == ["h0^2 v q y1^3", "h0^2 v^2 q y1^3"]


def scanned_dots_at(page, n, s):
    """Reference: the (key, a) at bidegree (n, s), found by scanning every
    key of the page (window_runs is the walker the package uses)."""
    out = []
    for key in page_keys(page):
        tw = any_tower(page.p, key)
        a = s - tw.s0
        h = tw.height
        if a >= 0 and (h is None or a < h) and tw.n0 - page.w * a == n:
            out.append((key, a))
    return out


def scanned_basis_at(page, n, s):
    return [dot_label(page.p, key, a) for key, a in scanned_dots_at(page, n, s)]


def test_reduced_e2_q_ladder_bidegrees():
    page = e2_window(2, 0, 40, 10)
    assert scanned_basis_at(page, 5, 2) == ["v^2 q"]
    assert scanned_basis_at(page, 5, 3) == ["h0 v^2 q"]
    # reduced page: no class under the q ladder
    assert scanned_basis_at(page, 9, 0) == []
    page3 = e2_window(3, 0, 40, 8)
    assert scanned_basis_at(page3, 7, 1) == ["v q"]
    assert scanned_basis_at(page3, 7, 2) == ["h0 v q"]
    assert scanned_basis_at(page3, 9, 2) == ["v^2 q y1"]


def test_window_is_deterministic():
    a = e2_window(2, 0, 50, 8)
    b = e2_window(2, 0, 50, 8)
    assert list(a.towers) == list(b.towers)
    assert run_differentials(a)[1] == run_differentials(b)[1]


def test_h0_and_v_operators():
    page = e2_window(2, 0, 60, 10)
    # W-chain: h0 . z_comp(3,3) = v . z_comp(2,3), bottoming out at i = k0
    top = main_key(2, 0, 0, zs=((3, 1),))
    mid = main_key(2, 0, 0, zs=((2, 2),))
    assert page.h0_op(top, 0) == (mid, 1)
    assert page.h0_op(mid, 1) is None
    # h0 raises the coset level at fixed v-exponent
    assert page.h0_op(("h0", 0, 1, 0), 2) == (("h0", 1, 1, 0), 2)
    # the exotic corner: h0 . (y1^b y0 z0) = v . (y1^b z1), once per b
    assert page.h0_op(("sp", "x8", 2), 0) == (("sp", "x10", 2), 1)
    assert page.h0_op(("sp", "x10", 2), 0) is None
    assert page.v_op(("sp", "x10", 2), 0) == (("sp", "x10", 2), 1)
    assert page.v_op(("sp", "x10", 2), 1) is None  # height 2
    assert page.v_op(("sp", "x8", 2), 0) is None  # height 1
    assert page.v_op(top, 30) == (top, 31)  # E2 towers are v-free


def test_applied_list_reproduces_closed_forms():
    page = e2_window(2, 0, 40, 8)
    _, applied = run_differentials(page)
    recs = {(d["source_label"], d["r"]): d["target_label"] for d in applied}
    assert recs[("y1", 2)] == "v^2 q"
    assert recs[("y1 z2", 2)] == "v^2 q z2"
    assert recs[("v^2 q y1", 2)] == "v^4 z2"
    assert recs[("y1^2", 3)] == "h0 v^2 q y1"
    for d in applied:
        assert set(d) == {"r", "source_label", "target_label"} and d["r"] >= 2


def crippled_without(gone):
    page = e2_window(2, 0, 40, 8)
    window = (page.p, page.n_lo, page.n_hi, page.s_max)
    assert gone in page_keys(page)
    if gone[0] == "h0":  # the bottom of its column
        cs = page.columns[gone[2:]]
        assert gone[1] == cs.start
        columns = {**page.columns, gone[2:]: cs[1:]}
        return BigradedPage(*window, page.towers, columns)
    bad = {k: t for k, t in page.towers.items() if k != gone}
    return BigradedPage(*window, bad, page.columns)


def test_missing_target_is_a_hard_error():
    gone = main_key(2, 0, 1, zs=((2, 1),))  # q z2, target of y1 z2
    crippled = crippled_without(gone)
    with pytest.raises(WindowError, match="missing"):
        run_differentials(crippled)
    orphans = pair_towers(crippled).problems["orphans"]
    assert orphans == [
        {
            "kind": "missing-target",
            "tower": dot_label(2, classify(2, gone).partner, 0),
            "partner": dot_label(2, gone, 0),
        }
    ]
    assert orphans[0]["tower"] == "y1 z2"


def test_missing_source_is_a_hard_error():
    gone = ("h0", 0, 1, 1)  # v^2 q y1, the source under the z2 tower
    crippled = crippled_without(gone)
    assert gone not in crippled and ("h0", 1, 1, 1) in crippled
    with pytest.raises(WindowError, match="missing"):
        run_differentials(crippled)
    orphans = pair_towers(crippled).problems["orphans"]
    assert orphans == [
        {
            "kind": "missing-source",
            "tower": dot_label(2, fate(2, gone)[4], 0),
            "partner": dot_label(2, gone, 0),
        }
    ]
    assert orphans[0] == {"kind": "missing-source", "tower": "z2", "partner": "v^2 q y1"}


def test_a_missing_block_end_is_an_orphan():
    # both ends of the F1 pair y1^3 -> v^2 q y1^2, each missing in turn: the
    # run of the other end fails its check and spells the orphan
    ends = {
        ("h0", 0, 2, 1): {"kind": "missing-target", "tower": "y1^3", "partner": "v^2 q y1^2"},
        ("h0", 0, 3, 0): {"kind": "missing-source", "tower": "v^2 q y1^2", "partner": "y1^3"},
    }
    for gone, orphan in ends.items():
        crippled = crippled_without(gone)
        with pytest.raises(WindowError, match="missing"):
            run_differentials(crippled)
        assert pair_towers(crippled).problems["orphans"] == [orphan]


def in_window_pairs(page):
    """(source key, its fate) of every differential with both ends in the
    window, in tower order."""
    fates = {k: classify(page.p, k) for k in page.towers}
    return [
        (k, f) for k, f in fates.items() if f.role == "source" and f.partner in fates
    ]


def patch_fates(monkeypatch, changed):
    """Make adams.classify return changed[key] for the keys listed."""
    real = adams.classify
    monkeypatch.setattr(adams, "classify", lambda p, k: changed.get(k) or real(p, k))


def shift_e0(monkeypatch, src, f):
    """Add 1 to e0 on both ends of the differential src -> f.partner."""
    tgt = f.partner
    patch_fates(
        monkeypatch,
        {
            src: f._replace(e0=f.e0 + 1),
            tgt: classify(2, tgt)._replace(e0=f.e0 + 1),
        },
    )


def test_replay_rejects_a_one_sided_round_trip(monkeypatch):
    page = e2_window(2, 0, 60, 12)
    (s1, f1), (s2, _) = in_window_pairs(page)[:2]
    # the target of s1 names s2 as its source; s2 still hits its own target
    patch_fates(
        monkeypatch,
        {f1.partner: classify(2, f1.partner)._replace(partner=s2)},
    )
    with pytest.raises(WindowError, match="round-trip"):
        run_differentials(page)
    assert not matching_audit(2, 0, 60, 12)["ok"]


def test_replay_rejects_a_pair_with_broken_geometry(monkeypatch):
    page = e2_window(2, 0, 60, 12)
    shift_e0(monkeypatch, *in_window_pairs(page)[0])
    with pytest.raises(WindowError, match="geometry"):
        run_differentials(page)
    assert not matching_audit(2, 0, 60, 12)["ok"]


def test_a_double_hit_is_reported_and_raised(monkeypatch):
    page = e2_window(2, 0, 60, 12)
    (s1, f1), (s2, f2) = in_window_pairs(page)[:2]
    patch_fates(monkeypatch, {s2: f2._replace(partner=f1.partner)})
    with pytest.raises(WindowError, match="double_hits"):
        run_differentials(page)
    rep = matching_audit(2, 0, 60, 12)
    label = {k: dot_label(2, k, 0) for k in page.towers}
    assert rep["double_hits"] == [
        {"target": label[f1.partner], "sources": [label[s1], label[s2]]}
    ]
    # s2 and its own target no longer invert each other
    bad = sorted(m["tower"] for m in rep["mismatches"])
    assert bad == sorted([label[s2], label[f2.partner]])


def test_matching_audit_reports_a_bad_pair_once(monkeypatch):
    page = e2_window(2, 0, 60, 12)
    src, f = in_window_pairs(page)[0]
    shift_e0(monkeypatch, src, f)
    rep = matching_audit(2, 0, 60, 12)
    assert rep["mismatches"] == [
        {
            "kind": "geometry",
            "source": dot_label(2, src, 0),
            "target": dot_label(2, f.partner, 0),
            "r": f.r,
            "e0": f.e0 + 1,
        }
    ]
    assert rep["orphans"] == [] and rep["double_hits"] == []


# sha256 of json.dumps([sorted(einf.items()), applied]): no CLI output
# prints the applied list, only its length
REPLAY_DIGESTS = {
    (2, 0, 120, 35): "5071b8dd233a8ff4add37fe47196e50138a0a2817decc269371c58690da1258f",
    (3, 0, 150, 30): "8793cd6270e77c8360e5ae5eb164e34adff774b3a2bf8314d780242cebec95cb",
    (5, 0, 400, 20): "c5b81db1ba092c29232bca6c5888c1b63f7520b50a948549798a7bb419fd56e3",
}


@pytest.mark.parametrize("window", sorted(REPLAY_DIGESTS))
def test_replay_is_pinned_and_ordered(window):
    p = window[0]
    page = e2_window(*window)
    einf, applied = run_differentials(page)
    blob = json.dumps([sorted(einf.items()), applied])
    assert hashlib.sha256(blob.encode()).hexdigest() == REPLAY_DIGESTS[window]
    keys = set(page_keys(page)) | {fate(p, k)[4] for k in page_keys(page)}
    n0 = {dot_label(p, k, 0): any_tower(p, k).n0 for k in keys - {None}}
    order = [
        (d["r"], n0[d["source_label"]], d["source_label"], d["target_label"]) for d in applied
    ]
    assert order == sorted(order)


# -- the per-coset reference replay ----------------------------------------------
#
# The replay as it ran before the h0 block: one tower record and one Fate per h0
# coset, one hit list over every target, the applied records sorted by their
# labels.  The package must agree with it exactly.


@dataclasses.dataclass
class RefPage:
    p: int
    n_lo: int
    n_hi: int
    s_max: int
    n_pad: int
    towers: dict
    heights: dict

    @property
    def w(self):
        return 2 * (self.p - 1)


def ref_e2_window(p, n_lo, n_hi, s_max):
    """The MAIN and SP towers of e2_window plus every h0 coset as a tower,
    enumerated by c, then b, up to the pad."""
    page = e2_window(p, n_lo, n_hi, s_max)
    towers = {k: RefTower(k, n0, 0, page.height(k)) for k, n0 in page.towers.items()}
    offset = q_degree(p) - 2 * (p - 1) * k0(p)
    for eps in (0, 1):
        for c in range(s_max + 1):
            b = 1 - eps
            while 2 * p * b + eps * offset <= page.n_pad:
                towers[("h0", c, b, eps)] = any_tower(p, ("h0", c, b, eps))
                b += 1
    labels = [dot_label(p, k, 0) for k in towers]
    assert len(set(labels)) == len(labels)
    heights = {k: t.height for k, t in towers.items()}
    return RefPage(p, n_lo, n_hi, s_max, page.n_pad, towers, heights)


def ref_dims(page, heights):
    out = {}
    for key, tw in page.towers.items():
        h = heights[key]
        cap = page.s_max - tw.s0 + 1
        cap = cap if h is None else min(h, cap)
        for a in tower_dots(tw.n0, cap, page.w, page.n_lo, page.n_hi):
            ns = (tw.n0 - page.w * a, tw.s0 + a)
            out[ns] = out.get(ns, 0) + 1
    return out


def ref_pair_towers(page):
    p, towers = page.p, page.towers
    fates = {k: fate(p, k) for k in towers}

    def label(tw):
        return dot_label(p, tw.key, 0)

    pairs, orphans, mismatches, hits = [], [], [], {}
    for key, f in fates.items():
        mate = f.partner
        if mate is None:
            continue
        if f.role == "source":
            hits.setdefault(mate, []).append(key)
        tw, mt = towers[key], towers.get(mate)
        inside = mt is not None
        back = fates[mate] if inside else fate(p, mate)
        if (back.partner, back.r, back.e0, back.family) != (key, f.r, f.e0, f.family) or (
            back.role == f.role
        ):
            mismatches.append({"kind": "round-trip", "tower": label(tw), "partner": mate})
            continue
        if inside and f.role == "target":
            continue
        mt = mt or any_tower(p, mate)
        st, tt = (tw, mt) if f.role == "source" else (mt, tw)
        if tt.n0 != st.n0 + 1 + page.w * f.e0 or tt.s0 != st.s0 + f.r - f.e0:
            mismatches.append(
                {"kind": "geometry", "source": label(st), "target": label(tt), "r": f.r, "e0": f.e0}
            )
        excused = mt.n0 > page.n_pad or (mate[0] == "h0" and mate[1] > page.s_max)
        if not inside and not excused:
            orphans.append(
                {"kind": f"missing-{back.role}", "tower": label(tw), "partner": label(mt)}
            )
        pairs.append((st, tt, f))
    double_hits = [
        {"target": dot_label(p, t, 0), "sources": [dot_label(p, s, 0) for s in srcs]}
        for t, srcs in hits.items()
        if len(srcs) > 1
    ]
    problems = dict(orphans=orphans, double_hits=double_hits, mismatches=mismatches)
    return fates, pairs, problems


def ref_einfty_heights(page):
    """The checked pairing and the E-infinity heights it gives every key of
    the reference page: sources die, targets keep e0 dots."""
    _, pairs, problems = ref_pair_towers(page)
    assert not any(problems.values()), problems
    heights = dict(page.heights)
    for st, tt, f in pairs:
        for tw, h in ((st, 0), (tt, f.e0)):
            if tw.key in heights:
                assert heights[tw.key] is None
                heights[tw.key] = h
    return pairs, heights


def ref_run_differentials(page):
    pairs, heights = ref_einfty_heights(page)
    records = sorted(
        (f.r, st.n0, dot_label(page.p, st.key, 0), dot_label(page.p, tt.key, f.e0))
        for st, tt, f in pairs
    )
    applied = [{"r": r, "source_label": s, "target_label": t} for r, _, s, t in records]
    return ref_dims(page, heights), applied


def ref_matching_audit(p, n_lo, n_hi, s_max):
    page = ref_e2_window(p, n_lo, n_hi, s_max)
    fates, _, problems = ref_pair_towers(page)
    by_family = Counter((f.family, f.role) for f in fates.values() if f.family)
    report = {
        "p": p,
        "window": {"n_lo": n_lo, "n_hi": n_hi, "s_max": s_max, "n_pad": page.n_pad},
        "towers": len(page.towers),
        "survivors": sum(f.role == "survives" for f in fates.values()),
        "by_family": {f"{fam}-{role}": c for (fam, role), c in sorted(by_family.items())},
        **problems,
    }
    report["ok"] = not any(problems.values())
    return report


def ref_einfty_audit(p, n_hi):
    ch = full_chart(p, n_hi)
    chart_counts = Counter((n, a) for n in range(n_hi + 1) for _, a in ch.dots_at(n))
    s_max = max(s for _, s in chart_counts) + 4
    page = ref_e2_window(p, 0, n_hi, s_max)
    einf, applied = ref_run_differentials(page)
    mismatches = [
        {"n": n, "s": s, "einfty": einf.get((n, s), 0), "chart": chart_counts.get((n, s), 0)}
        for n, s in sorted(set(einf) | set(chart_counts))
        if einf.get((n, s), 0) != chart_counts.get((n, s), 0)
    ]
    totals = Counter()
    for (n, _), v in einf.items():
        totals[n] += v
    lengths = [
        {"n": n, "einfty": totals[n], "ku_length": sum(ch.group_at(n))}
        for n in range(n_hi + 1)
        if totals[n] != sum(ch.group_at(n))
    ]
    return {
        "p": p,
        "n_hi": n_hi,
        "s_max": s_max,
        "towers": len(page.towers),
        "differentials": len(applied),
        "bidegree_mismatches": mismatches,
        "length_mismatches": lengths,
        "ok": not (mismatches or lengths),
    }


REFERENCE_WINDOWS = ((2, 0, 250, 67), *sorted(REPLAY_DIGESTS))


@pytest.mark.parametrize("window", REFERENCE_WINDOWS)
def test_the_block_replay_matches_the_per_coset_reference(window):
    p, n_lo, n_hi, s_max = window
    page, ref = e2_window(*window), ref_e2_window(*window)
    assert len(page) == len(ref.towers) and len(page.towers) < len(ref.towers) / 2
    assert set(page_keys(page)) == set(ref.towers)
    assert run_differentials(page) == ref_run_differentials(ref)
    assert pair_towers(page).problems == ref_pair_towers(ref)[2]
    assert page.dims() == ref_dims(ref, ref.heights)
    assert matching_audit(*window) == ref_matching_audit(*window)
    assert einfty_audit(p, n_hi) == ref_einfty_audit(p, n_hi)


@pytest.mark.parametrize("window", REFERENCE_WINDOWS)
def test_einfty_heights_are_read_off_fates_as_the_pairing_gives_them(window):
    # BigradedPage.height reads every key's E-infinity height off its own
    # fate; the reference cuts the towers of the checked pairing instead
    page, ref = e2_window(*window), ref_e2_window(*window)
    heights = ref_einfty_heights(ref)[1]
    assert {key: page.height(key, einfty=True) for key in page_keys(page)} == heights
    # the window holds dead towers, towers of height 1 and taller ones
    assert {heights[key] for key, *_ in page.window_runs()} > {0, 1}


@pytest.fixture
def fresh_fates():
    """classify caches its fates: run a patched h0_segments on fresh caches."""
    adams.classify.cache_clear()
    yield
    adams.classify.cache_clear()


def shift_f1_partner(p, b, eps, real=adams.h0_segments):
    return [s._replace(offset=s.offset + 1) if s.family == "F1" else s for s in real(p, b, eps)]


def bump_r_on_one_column(p, b, eps, real=adams.h0_segments):
    segs = real(p, b, eps)
    return [s._replace(r=s.r + 1) for s in segs] if (b, eps) == (3, 0) else segs


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("mutant", (shift_f1_partner, bump_r_on_one_column))
def test_a_broken_block_fails_the_replay_and_both_audits(p, mutant, monkeypatch, fresh_fates):
    assert matching_audit(p, 0, 60, 12)["ok"] and einfty_audit(p, 60)["ok"]
    monkeypatch.setattr(adams, "h0_segments", mutant)
    page = e2_window(p, 0, 60, 12)
    with pytest.raises(WindowError, match="round-trip"):
        run_differentials(page)
    matching = matching_audit(p, 0, 60, 12)
    assert not matching["ok"] and {m["kind"] for m in matching["mismatches"]} == {"round-trip"}
    einfty = einfty_audit(p, 60)
    assert not einfty["ok"] and einfty["mismatches"]
    assert einfty["bidegree_mismatches"] == [] == einfty["length_mismatches"]


@pytest.mark.parametrize("p", (2, 3))
def test_a_block_pair_with_broken_geometry_is_reported_per_coset(p, monkeypatch, fresh_fates):
    # r bumped on both ends of the F1 run from column (3, 0): every round
    # trip holds, and each source in the window reports its geometry once
    real = adams.h0_segments
    src_col, (seg,) = (3, 0), real(p, 3, 0)

    def bump_r_on_one_pair(p, b, eps):
        segs = real(p, b, eps)
        if (b, eps) not in (src_col, seg.partner):
            return segs
        return [s._replace(r=s.r + 1) if s.family == "F1" else s for s in segs]

    monkeypatch.setattr(adams, "h0_segments", bump_r_on_one_pair)
    rep = matching_audit(p, 0, 60, 12)
    assert rep["mismatches"] == [
        {
            "kind": "geometry",
            "source": dot_label(p, ("h0", c, *src_col), 0),
            "target": dot_label(p, ("h0", c + seg.offset, *seg.partner), 0),
            "r": seg.r + 1,
            "e0": 0,
        }
        for c in range(13)
    ]
    assert rep["orphans"] == [] == rep["double_hits"]


@pytest.mark.parametrize("window", ((2, 0, 120, 35), (3, 0, 150, 30)))
def test_a_valid_block_checks_no_f1_coset_one_at_a_time(window, monkeypatch):
    # on a valid page every F1 run passes its run check, so _pair sees only
    # the F3 sources, whose targets are per-key towers
    p = window[0]
    seen = []
    real = adams._pair

    def recording(page, key, *rest):
        if key[0] == "h0":
            seen.append(key)
        return real(page, key, *rest)

    monkeypatch.setattr(adams, "_pair", recording)
    page = e2_window(*window)
    assert not any(pair_towers(page).problems.values())
    f3 = [k for k in page_keys(page) if k[0] == "h0" and fate(p, k).family == "F3"]
    assert f3 and sorted(seen) == sorted(f3)


# a column whose c = 0 and 1 are F3 sources and c = 2 its first F1 target
COLUMN_BOTTOM = {2: (3, 1), 3: (2, 1)}


@pytest.mark.parametrize("p", (2, 3))
def test_a_column_runs_from_its_f3_sources_to_its_f1_targets(p):
    b, eps = COLUMN_BOTTOM[p]
    page = e2_window(p, 0, 60, 12)
    keys = [("h0", c, b, eps) for c in range(3)]
    assert [fate(p, k)[:2] for k in keys] == [("source", "F3")] * 2 + [("target", "F1")]
    assert all(k in page for k in keys)
    assert page.h0_op(keys[1], 0) == (keys[2], 0)
    assert set(keys) <= {k for k, *_ in page.window_runs()}


@pytest.mark.parametrize("p", (2, 3))
def test_a_block_target_that_keeps_a_dot_breaks_the_block(p, monkeypatch, fresh_fates):
    # a coset must die on E-infinity for the block's one shared height
    b, eps = COLUMN_BOTTOM[p]
    real = adams.h0_segments
    r = adams.h0_fate(p, 2, b, eps)[2]

    def keeps_a_dot(p, b2, eps2):
        segs = real(p, b2, eps2)
        if (b2, eps2) != (b, eps):
            return segs
        *sources, targets = segs  # the targets start at c = 2
        kept = targets._replace(cs=targets.cs[:1], e0=1)
        return [*sources, kept, targets._replace(cs=targets.cs[1:])]

    monkeypatch.setattr(adams, "h0_segments", keeps_a_dot)
    with pytest.raises(WindowError):
        run_differentials(e2_window(p, 0, 60, 12))
    rep = matching_audit(p, 0, 60, 12)
    label = dot_label(p, ("h0", 2, b, eps), 0)
    assert [m for m in rep["mismatches"] if m["kind"] == "block"] == [
        {"kind": "block", "tower": label, "fate": ["target", "F1", r, 1]}
    ]


def ref_h0_fate(p, c, b, eps):
    """The fate of the coset h0^c (v^k0 q)^eps y1^b, one coset at a time."""
    kk, odd = k0(p), p % 2
    if eps == 0:
        d = nu(p, b)
        return ("source", "F1", d + 2, 0, ("h0", c + d + odd, b - 1, 1))
    d = nu(p, b + 1)
    if c >= d + odd:
        return ("target", "F1", d + 2, 0, ("h0", c - d - odd, b + 1, 0))
    t = c + kk
    z_t = ("main", b + 1 - p ** (t - 1), 0, *z_decompose_dict(p, {t: 1}))
    return ("source", "F3", p**t - t, p**t, z_t)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_h0_segments_match_the_per_coset_formula(p):
    # every column reaching nu(b+1) = 3, every coset to 4 levels past its
    # last F3 source; the segments tile c >= 0 in order, the last one open
    for eps in (0, 1):
        for b in range(1 - eps, p**3 + p):
            segs = adams.h0_segments(p, b, eps)
            assert [s.cs.start for s in segs] == [0, *(s.cs.stop for s in segs[:-1])]
            assert segs[-1].cs.stop == adams.OPEN and segs[-1].family == "F1"
            top = segs[-1].cs.start + 4
            assert [adams.h0_fate(p, c, b, eps) for c in range(top)] == [
                ref_h0_fate(p, c, b, eps) for c in range(top)
            ]


# -- audits --------------------------------------------------------------------


def test_matching_audit_is_a_perfect_matching():
    for p, n_hi, s_max in ((2, 120, 35), (3, 150, 30)):
        rep = matching_audit(p, 0, n_hi, s_max)
        assert rep["ok"], rep
        assert rep["orphans"] == [] and rep["double_hits"] == []
        assert rep["mismatches"] == []
        n_sp = sum(1 for k in e2_window(p, 0, n_hi, s_max).towers if k[0] == "sp")
        assert rep["survivors"] == n_sp


def test_einfty_matches_chart_small():
    for p in (2, 3):
        rep = einfty_audit(p, 60)
        assert rep["ok"], rep


def test_truncation_heights_reproduce_chart_heights():
    # every bounded chart tower is the E-infinity shadow of a page tower:
    # same generator, height = the e0 of the differential that truncates it
    # (SP towers carry their height outright).
    for p, n_hi in ((2, 80), (3, 80)):
        kk = k0(p)
        ch = full_chart(p, n_hi)
        for t in ch.towers:
            g = t.gen
            y_weight = sum(e * p**i for i, e in g.ys)  # y_i counts p^i y_0's
            zmin = min(j for j, _ in g.zs)
            if zmin < kk:
                zs = dict(g.zs)
                ys = dict(g.ys)
                if p == 2 and zs == {1: 1} and set(ys) <= {1, 2, 3, 4, 5, 6}:
                    kind, expect = "x10", 2
                elif zs == {0: 1} and ys.get(0) == p - 1:
                    kind, expect = "yz" if p > 2 else "x8", 1
                else:
                    raise AssertionError(f"unexpected low tower {g.render()}")
                b = (y_weight - (0 if kind == "x10" else (p - 1))) // p
                assert _sp_shape(p, ("sp", kind, b))[2] == expect == t.height
                continue
            assert y_weight % p == 0
            key = ("main", y_weight // p, g.q, *z_decompose_dict(p, g.z_dict()))
            f = classify(p, key)
            assert f.role == "target", g.render()
            assert f.e0 == t.height, (g.render(), f.e0, t.height)


def test_e2_dims_match_ext_bruteforce_window():
    # closed-form reduced E2 + free socles + unit == brute-force Ext
    p, n1, s1 = 2, 24, 5
    need = max((n1 - s) + (2 * p - 1) * (s + 1) for s in range(s1 + 1))
    oracle = ext_bruteforce(build_HK2(p, need), (0, n1), s1)
    closed = e2_dims(p, 0, n1, s1)
    G = free_part_ps(p, need)
    for n in range(n1 + 1):
        for s in range(s1 + 1):
            want = closed.get((n, s), 0)
            if s == 0 and n >= 2 * p:
                want += G[n - 2 * p]
            if n == 0:
                want += 1
            assert oracle.get((n, s), 0) == want, (n, s)


@pytest.mark.parametrize("p,n1,s1", [(2, 36, 8), (3, 48, 6)])
def test_ext_audit_fails_when_the_strip_keeps_a_dependent_generator(p, n1, s1, monkeypatch):
    # the oracle's own free-generator count meets free_part_ps in the (n, 0)
    # rows: one generator whose Q0Q1 image depends on the others spans no
    # free summand, and must show there
    assert ext_audit(p, n1, s1)["ok"]
    real = margolis._free_generators
    picked = []

    def one_too_many(p, socles):
        gens = real(p, socles)
        d, s = min((d, s) for d in gens for s in socles[d] if s not in gens[d])
        picked.append(d)
        return {**gens, d: gens[d] + [s]}

    monkeypatch.setattr(margolis, "_free_generators", one_too_many)
    report = ext_audit(p, n1, s1)
    assert not report["ok"]
    row = next(m for m in report["mismatches"] if (m["n"], m["s"]) == (picked[0] + 2 * p, 0))
    assert row["oracle"] == row["closed_plus_free"] + 1


def test_geometry_of_every_applied_differential():
    # d_r raises codegree by 1 and filtration by r: source base dot lands on
    # the first killed dot of the target tower.
    for p in (2, 3):
        page = e2_window(p, 0, 60, 12)
        for key in page_keys(page):
            f = fate(p, key)
            if f.role != "source":
                continue
            st, tt = any_tower(p, key), any_tower(p, f.partner)
            w = 2 * (p - 1)
            assert tt.n0 - w * f.e0 == st.n0 + 1
            assert tt.s0 + f.e0 == st.s0 + f.r


@pytest.mark.parametrize("p", (2, 3))
def test_e2_dims_match_the_per_bidegree_scan(p):
    n_lo, n_hi, s_max = 0, 60, 12
    page = e2_window(p, n_lo, n_hi, s_max)
    want = {}
    for n in range(n_lo, n_hi + 1):
        for s in range(s_max + 1):
            if scanned_dots_at(page, n, s):
                want[(n, s)] = len(scanned_dots_at(page, n, s))
    assert e2_dims(p, n_lo, n_hi, s_max) == want
    assert page.dims() == want


# -- key arithmetic against the Monomial-built reference ------------------------
#
# The reference below builds every tower and fate from Monomial products,
# degrees and render(); the integer key arithmetic of adams.py must agree
# with it exactly, labels included.  Both share monomial's spelling and
# canonical decomposition, so this checks the z-part products, quotients and
# degrees; test_monomial checks the spelling.


def _ref_zpart(p, key):
    _, _, _, i1, j2, e, lam = key
    m = z_comp(p, i1, j2)
    if e:
        m = m * Monomial.gen(p, "z", j2, e)
    if lam:
        m = m * Monomial(p, zs=lam)
    return m


def _ref_main_key(p, b, eps, zmono):
    return ("main", b, eps, *z_decompose_dict(p, zmono.z_dict()))


def _ref_z_quot(m, d):
    c = m.z_dict()
    for j, e in d.zs:
        c[j] = c.get(j, 0) - e
        if c[j] < 0:
            raise ValueError(f"{d.render()} does not divide {m.render()}")
    return Monomial(m.p, zs=tuple(sorted((j, e) for j, e in c.items() if e)))


def ref_tower(p, key):
    """(RefTower, label) of any key, from Monomial products and render()."""
    kk = k0(p)
    if key[0] == "main":
        _, b, eps, *_ = key
        mono = _ref_zpart(p, key)
        if b:
            mono = mono * Monomial.gen(p, "y", 1, b)
        if eps:
            mono = mono * Monomial.gen(p, "q")
        return RefTower(key, mono.degree, 0, None), mono.render()
    if key[0] == "h0":
        _, c, b, eps = key
        n0 = 2 * p * b + eps * (q_degree(p) - 2 * (p - 1) * kk)
        return RefTower(key, n0, c + kk * eps, None), dot_label(p, key, 0)
    _, kind, b = key
    ys = ((1, b),) if b else ()
    if kind == "x8":
        mono, height = Monomial(p, ys=((0, 1),) + ys, zs=((0, 1),)), 1
    elif kind == "x10":
        mono, height = Monomial(p, ys=ys, zs=((1, 1),)), 2
    else:
        mono, height = Monomial(p, ys=((0, p - 1),) + ys, zs=((0, 1),)), 1
    return RefTower(key, mono.degree, 0, height), mono.render()


def ref_classify(p, key):
    kk = k0(p)
    odd = 0 if p == 2 else 1
    if key[0] == "sp":
        return Fate("survives", None, None, None, None)
    if key[0] == "h0":
        return Fate(*ref_h0_fate(p, *key[1:]))
    _, b, eps, i1, j2, e, lam = key
    zm = _ref_zpart(p, key)
    if eps == 0:
        if b >= 1 and i1 >= nu(p, b) + 2:
            d = nu(p, b)
            zt = _ref_z_quot(zm, Monomial.gen(p, "z", i1)) * z_comp(p, i1 - d - odd, i1)
            return Fate("source", "F2", d + 2, d + 2, _ref_main_key(p, b - 1, 1, zt))
        t = i1
        if i1 == j2 and e == 0 and not lam:
            return Fate(
                "target", "F3", p**t - t, p**t, ("h0", t - kk, b + p ** (t - 1) - 1, 1)
            )
        j = t if (j2 > i1 or e >= 1) else lam[0][0]
        div = Monomial.gen(p, "z", t) * Monomial.gen(p, "z", j)
        zs = _ref_z_quot(zm, div) * z_comp(p, j - t + kk, j)
        return Fate(
            "target", "F4", p**t - t, p**t - t,
            _ref_main_key(p, b + p ** (t - 1) - 1, 1, zs),
        )
    t = j2 - i1 + kk
    if nu(p, b + 1) >= t - 1:
        mul = Monomial.gen(p, "z", t) * Monomial.gen(p, "z", j2)
        zt = _ref_z_quot(zm, z_comp(p, i1, j2)) * mul
        return Fate(
            "source", "F4", p**t - t, p**t - t,
            _ref_main_key(p, b + 1 - p ** (t - 1), 0, zt),
        )
    d = nu(p, b + 1)
    isrc = i1 + d + odd
    zs = _ref_z_quot(zm, z_comp(p, i1, isrc)) * Monomial.gen(p, "z", isrc)
    return Fate("target", "F2", d + 2, d + 2, _ref_main_key(p, b + 1, 0, zs))


@pytest.mark.parametrize(
    "p, n_hi, s_max",
    ((2, 120, 30), (3, 200, 20), (5, 300, 10), (7, 400, 8), (11, 3000, 3)),
)
def test_key_arithmetic_matches_the_monomial_reference(p, n_hi, s_max):
    page = e2_window(p, 0, n_hi, s_max)
    keys = set(page_keys(page))
    keys |= {fate(p, k)[4] for k in page_keys(page)} - {None}
    assert len(keys) > len(page)  # partners outside the window count too
    assert {k[0] for k in keys} == {"main", "h0", "sp"}
    for key in keys:
        want, label = ref_tower(p, key)
        assert (any_tower(p, key), dot_label(p, key, 0)) == (want, label), key
        assert fate(p, key) == ref_classify(p, key), key


def ref_z_runs(p, budget):
    """Reference: the canonical MAIN z-parts by the nested loop the one walk
    replaced: i1, then e <= p-2, then Lambda_{j2+1} by degree."""
    kk = k0(p)
    out = []
    j2 = kk
    while z_degree(p, j2) <= budget:
        lams = ref_lambda_exponents(p, j2 + 1, budget - z_degree(p, j2))
        for i1 in range(kk, j2 + 1):
            base = z_comp(p, i1, j2).degree
            for e in range(p - 1):
                d0 = base + e * z_degree(p, j2)
                if d0 > budget:
                    break
                for lam, deg in lams:
                    if d0 + deg > budget:
                        break
                    out.append((i1, j2, e, lam, d0 + deg))
        j2 += 1
    return out


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_z_runs_match_the_nested_loop(p):
    # the walk's order differs; e2_window keys its towers, so compare sets
    sizes = []
    for budget in (0, 57, 200, 611, 2000):
        got = _z_runs(p, budget)
        want = ref_z_runs(p, budget)
        assert len(got) == len(set(got)) == len(want), budget
        assert set(got) == set(want), budget
        sizes.append(len(got))
    assert sizes[-1] > 5


@pytest.mark.parametrize(
    "p, z", ((2, {2: 3}), (3, {1: 3, 2: 3}), (3, {1: 1, 3: 3}))
)
def test_a_non_canonical_z_part_raises(p, z):
    with pytest.raises(ValueError, match="canonical"):
        z_decompose_dict(p, z)


def test_a_non_canonical_key_has_no_partner():
    # q z1 z2^3 at p = 3: the z2^3 in lam is above p - 1, so the key is rejected
    with pytest.raises(ValueError, match="canonical"):
        classify(3, ("main", 0, 1, 1, 1, 0, ((2, 3),)))

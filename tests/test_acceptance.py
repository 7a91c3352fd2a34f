"""Acceptance gate: thirteen checks, each printing a single PASS/FAIL line.

Every expected value here was either computed by an independent oracle in
this repository or transcribed from the published closed forms; tolerances
are zero throughout.  Timing bounds are generous versions of the intended
desk-scale budgets and run on one core.
"""

import time
from collections import Counter

from kuengine import adams, cli, k1, model, modules
from kuengine.padic import r, r_prime, table35_row


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {name}{suffix}"


def test_01_free_series_golden_value():
    t0 = time.perf_counter()
    count = model.free_part_ps(2, 79).c[79]
    dt = time.perf_counter() - t0
    _verdict(1, "free-generator count in degree 79", count == 245 and dt < 1.0,
             f"got {count}, {dt:.3f}s")


def test_02_group_golden_value():
    # the k = 5 block alone contributes Z/8 + Z/2 in degree 82 at p = 2,
    # and the full group contains that contribution
    a5 = modules.build_A(2, 5).group_at(82)
    full = modules.ku_group_at(2, 82)
    contained = not (Counter(a5) - Counter(full))
    _verdict(2, "degree-82 group contribution", a5 == [3, 1] and contained,
             f"A5 gives {a5}, full {full}")


def test_03_extension_golden_value():
    # the dot y3 z3 z4 (degree 116, filtration 0) carries a hidden
    # p-extension with exactly two targets: v y3 z2^2 z4 and v^8 z4^2
    # (z[4,5] is the composite that equals z4 squared when p = 2)
    want = {("y3 z2^2 z4", 1), ("z[4,5]", 8)}
    ok = True
    detail = []
    for chart in (modules.build_A(2, 5), modules.build_B(2, 5)):
        towers = chart.towers
        src = [t for t, tw in enumerate(towers) if str(tw.gen).strip("<>") == "y3 z3 z4"]
        # the source dot is (t, 0): the tower's top, in filtration 0
        edge = chart.edge_at((src[0], 0)) if len(src) == 1 else None
        if edge is None:
            ok = False
            continue
        got = {(str(towers[i].gen).strip("<>"), a) for i, a in edge.dst}
        ok = ok and towers[src[0]].gen_degree == 116 and got == want
        detail.append(sorted(got))
    _verdict(3, "two-target extension on y3 z3 z4", ok, f"targets {detail}")


# every printed row of the worked p = 5 case table: (ell, t, |T|, |M|, M')
TABLE35_ROWS = [
    (0, 1, 6, 26, 10), (36, 1, 726, 746, 730), (1, 1, 26, 46, 30),
    (37, 1, 746, 766, 750), (2, 1, 46, 66, 50), (7, 2, 726, 826, 746),
    (0, 2, 26, 126, 46), (40, 1, 806, 826, 810), (5, 1, 106, 126, 110),
    (41, 1, 826, 846, 830), (6, 1, 126, 146, 130), (42, 1, 846, 866, 850),
    (7, 1, 146, 166, 150), (8, 2, 826, 926, 846), (1, 2, 126, 226, 146),
    (45, 1, 906, 926, 910), (10, 1, 206, 226, 210), (46, 1, 926, 946, 930),
    (11, 1, 226, 246, 230), (47, 1, 946, 966, 950), (12, 1, 246, 266, 250),
    (9, 2, 926, 1026, 946), (2, 2, 226, 326, 246), (50, 1, 1006, 1026, 1010),
    (15, 1, 306, 326, 310), (51, 1, 1026, 1046, 1030), (16, 1, 326, 346, 330),
    (52, 1, 1046, 1066, 1050), (17, 1, 346, 366, 350), (1, 3, 626, 1126, 714),
    (3, 2, 326, 426, 346), (10, 2, 1026, 1126, 1046), (20, 1, 406, 426, 410),
    (55, 1, 1106, 1126, 1110), (21, 1, 426, 446, 430), (56, 1, 1126, 1146, 1130),
    (22, 1, 446, 466, 450), (57, 1, 1146, 1166, 1150), (4, 2, 426, 526, 446),
    (11, 2, 1126, 1226, 1146), (25, 1, 506, 526, 510), (60, 1, 1206, 1226, 1210),
    (26, 1, 526, 546, 530), (61, 1, 1226, 1246, 1230), (27, 1, 546, 566, 550),
    (62, 1, 1246, 1266, 1250), (0, 3, 126, 626, 214), (5, 2, 526, 626, 546),
    (154, 1, 3086, 3106, 3090), (30, 1, 606, 626, 610), (0, 4, 626, 3126, 1050),
    (31, 1, 626, 646, 630), (5, 3, 2626, 3126, 2714), (32, 1, 646, 666, 650),
    (30, 2, 3026, 3126, 3046), (6, 2, 626, 726, 646), (155, 1, 3106, 3126, 3110),
    (35, 1, 706, 726, 710), (156, 1, 3126, 3146, 3130),
]


def test_04_case_table_reproduction():
    spot = {(0, 1): (6, 26, 10), (1, 3): (626, 1126, 714), (0, 4): (626, 3126, 1050)}
    assert all((l, t, *v) in [tuple(row) for row in TABLE35_ROWS]
               for (l, t), v in spot.items())
    bad = [(l, t) for (l, t, T, M, Mp) in TABLE35_ROWS
           if table35_row(l, t) != (T, M, Mp)]
    _verdict(4, f"all {len(TABLE35_ROWS)} case-table rows", not bad, f"bad {bad}")


def test_05_r_sequence_identities():
    t0 = time.perf_counter()
    bad = []
    for p in (2, 3, 5):
        if not (r(p, 0) == 1 and r(p, 1) == p
                and r_prime(p, 0) == p - 1 and r_prime(p, 1) == p * p - p):
            bad.append((p, "seeds"))
        for j in range(31):
            checks = [
                r(p, j + 2) == r(p, j) + p ** (j + 1) * (p - 1) + 1,
                r_prime(p, j + 2) == r_prime(p, j) + p ** (j + 2) * (p - 1) - 1,
                r(p, j) + r_prime(p, j) == p ** (j + 1),
                r(p, j + 2) + r_prime(p, j) == p ** (j + 2) + 1,
            ]
            if j >= 1:
                checks += [
                    r(p, j) - r_prime(p, j - 1) == j,
                    (p - 1) * (r(p, j - 1) + j - 1) < p ** j,
                    p ** (j + 1) - p ** j <= r_prime(p, j) < p ** (j + 1) - p ** (j - 1),
                ]
            if not all(checks):
                bad.append((p, j))
    dt = time.perf_counter() - t0
    _verdict(5, "recurrence identities j <= 30", not bad and dt < 1.0,
             f"bad {bad}, {dt:.3f}s")


def test_06_pipeline_equivalence():
    t0 = time.perf_counter()
    r2 = adams.einfty_audit(2, 120)
    r3 = adams.einfty_audit(3, 150)
    dt = time.perf_counter() - t0
    ok = r2["ok"] and r3["ok"] and dt < 60.0
    _verdict(6, "replayed E-infinity equals the chart", ok,
             f"p=2 mismatches {len(r2['bidegree_mismatches'])}, "
             f"p=3 mismatches {len(r3['bidegree_mismatches'])}, {dt:.2f}s")


def test_07_matching_audit():
    r2 = adams.matching_audit(2, 0, 120, 35)
    r3 = adams.matching_audit(3, 0, 150, 30)
    ok = all(rep["ok"] and not rep["orphans"] and not rep["double_hits"]
             for rep in (r2, r3))
    _verdict(7, "every tower in exactly one differential family", ok,
             f"p=2 towers {r2['towers']}, p=3 towers {r3['towers']}")


def test_08_bockstein_exactness():
    t0 = time.perf_counter()
    r2 = k1.bockstein_audit(2, 200)
    r3 = k1.bockstein_audit(3, 300)
    dt = time.perf_counter() - t0
    ok = r2["ok"] and r3["ok"] and dt < 60.0
    _verdict(8, "k(1) dims = coker + ker of multiplication by p", ok,
             f"{dt:.2f}s")


def test_09_theorem61_accounting():
    r3 = k1.theorem61_audit(3, 200)
    r5 = k1.theorem61_audit(5, 200)
    _verdict(9, "G-family dims sum to k(1) dims (p = 3, 5)",
             r3["ok"] and r5["ok"],
             f"p=3 checked {r3['checked']}, p=5 checked {r5['checked']}"
             if "checked" in r3 else "")


def test_10_ext_oracle_equivalence():
    t0 = time.perf_counter()
    r2 = adams.ext_audit(2, 56, 10)
    r3 = adams.ext_audit(3, 60, 8)
    dt = time.perf_counter() - t0
    ok = r2["ok"] and r3["ok"] and dt < 600.0
    _verdict(10, "brute-force Ext equals the closed-form page", ok,
             f"checked {r2['checked']} + {r3['checked']} bidegrees, {dt:.1f}s")


def test_11_margolis_closed_forms():
    reports = [model.margolis_audit(p, 60) for p in (2, 3, 5)]
    _verdict(11, "Q0/Q1 homology matches the closed forms (deg <= 60)",
             all(rep["ok"] for rep in reports))


def test_12_duality():
    # the groups command's homology rows at n against its cohomology rows
    # at n + 2p
    bad = []
    for p in (2, 3):
        hom = cli.cmd_groups(cli.RunConfig(p, window=(0, 150), homology=True))
        coh = cli.cmd_groups(cli.RunConfig(p, window=(2 * p, 150 + 2 * p)))
        for n, (h, c) in enumerate(zip(hom, coh)):
            if h["degree"] != n or c["degree"] != n + 2 * p or \
                    (h["group"], h["pretty"]) != (c["group"], c["pretty"]):
                bad.append((p, n))
        if len(hom) != 151 or len(coh) != 151:
            bad.append((p, "rows"))
    d2 = modules.duality_audit(2, 4)
    d3 = modules.duality_audit(3, 4)
    ok = not bad and d2["ok"] and d3["ok"]
    _verdict(12, "degree shift and self-dual blocks", ok,
             f"shift failures {bad}, rank checks {d2['checked']} + {d3['checked']}")


def test_13_assoc_graded_cross_check():
    bad = []
    for p in (2, 3):
        full = modules.full_chart(p, 200)
        dims = modules.assoc_graded_dims(p, 200)
        for n in range(201):
            if dims[n] != full.dims_at(n):
                bad.append((p, n))
    _verdict(13, "associated-graded dims equal assembled dot counts", not bad,
             f"bad {bad}")

"""Oracle layer: the E1-module model of H*(K(Z/p,2)), Margolis homology
against closed forms, the non-free piece decomposition, free-summand
counts, the brute-force Ext calculator on small known modules, and the
split that takes the free summands off before Ext is ranked."""

import functools
import tracemalloc

import pytest

from kuengine.linalg import Echelon, gf_rank_sparse
from kuengine.margolis import (
    E1Module,
    EXACT,
    GenSpec,
    build_HK2,
    ext_bruteforce,
    ext_cutoff,
    margolis_homology,
    strip_free,
)
from kuengine.model import (
    _L,
    _M,
    _N,
    _R,
    assemble_T,
    free_part_ps,
    free_part_total_ps,
    q0_homology_closed,
    q1_homology_closed,
    trivial_summand_counts,
)
from kuengine import margolis as margolis_module
from kuengine.margolis import _by_source
from kuengine import model as model_module
from kuengine.monomial import q_degree
from kuengine.series import PSeries


def hk2_ps(p: int, D: int) -> PSeries:
    """Poincare series of H*(K(Z/p,2)) straight from the generator list."""
    out = PSeries.one(D)
    if p == 2:
        j = 0
        while 2**j + 1 <= D:
            out = out * PSeries.geometric(D, 2**j + 1)
            j += 1
        return out
    out = out * PSeries.geometric(D, 2)
    j = 1
    while 2 * (p**j + 1) <= D:
        out = out * PSeries.geometric(D, 2 * (p**j + 1))
        j += 1
    i = 0
    while 2 * p**i + 1 <= D:
        out = out * (PSeries.one(D) + PSeries.monomial(D, 2 * p**i + 1))
        i += 1
    return out


def ground_field(p: int) -> E1Module:
    return E1Module.from_labels(p, EXACT, [("1", 0)], {}, {})


def free_on_one_generator(p: int, d: int) -> E1Module:
    basis = [("m", d), ("m0", d + 1), ("m1", d + 2 * p - 1), ("m01", d + 2 * p)]
    q0 = {"m": {"m0": 1}, "m1": {"m01": 1}}
    q1 = {"m": {"m1": 1}, "m0": {"m01": p - 1}}
    return E1Module.from_labels(p, EXACT, basis, q0, q1)


def label_view(mod: E1Module, which: str) -> dict:
    """{label: {label: coeff}} of mod's Q0 or Q1 (which = "q0" or "q1"),
    read off the stored (source, target, coeff) triples in their order."""
    q, shift = (mod.q0, 1) if which == "q0" else (mod.q1, 2 * mod.p - 1)
    out = {}
    for d, triples in q.items():
        source, target = mod.labels(d), mod.labels(d + shift)
        for s, t, c in triples:
            out.setdefault(source[s], {})[target[t]] = c
    return out


def basis_degrees(mod: E1Module) -> list:
    """(label, degree) of every basis element, in basis order."""
    return [(lbl, d) for d in mod.by_degree for lbl in mod.labels(d)]


def degrees(mod: E1Module) -> list:
    return sorted(d for _, d in basis_degrees(mod))


# -- the big module ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_hk2_dimensions_match_generator_count(p):
    mod = build_HK2(p, 40)
    assert mod.ps() == hk2_ps(p, 40)
    if p == 2:
        assert mod.labels(5) == ["u2 u3", "u5"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hk2_is_a_valid_e1_module(p):
    # at odd p the cutoff 4p^2 passes |u_2| = 2p^2+1 and |g_2| = 2(p^2+1),
    # so the Koszul signs of u_2, g_2 and their products with y0, u0, u1
    # are checked against Q^2 = 0 and Q0Q1 + Q1Q0 = 0
    mod = build_HK2(p, 30 if p == 2 else 4 * p * p)
    assert p == 2 or {"u2", "g2", "y0 u0 u1 u2"} <= {lbl for lbl, _ in basis_degrees(mod)}
    mod.validate()


def test_hk2_q_action_spot_checks_mod_2():
    mod = build_HK2(2, 40)
    q0, q1 = label_view(mod, "q0"), label_view(mod, "q1")
    assert q0["u2"] == {"u3": 1}
    assert "u3" not in q0  # Q0 u3 = 0
    assert q1["u3"] == {"u3^2": 1}
    assert "u5" not in q1  # Q1 u5 = 0
    assert q0["u9"] == {"u5^2": 1}
    assert q1["u9"] == {"u3^4": 1}
    assert q0["u2 u3"] == {"u3^2": 1}  # Leibniz: u3*u3 + u2*0


def test_hk2_q_action_spot_checks_mod_3():
    mod = build_HK2(3, 30)
    q0, q1 = label_view(mod, "q0"), label_view(mod, "q1")
    assert q0["y0"] == {"u0": 1}
    assert q1["y0"] == {"u1": 1}
    assert q0["u1"] == {"g1": 1}
    assert q1["u0"] == {"g1": 2}  # the sign that makes Q0Q1 + Q1Q0 = 0
    assert q1["u2"] == {"g1^3": 1}
    # Leibniz with the exterior square: Q0(y0 u0) = u0^2 + 0 = 0, no entry.
    assert "y0 u0" not in q0


# -- the Q-maps as derivations, from a product computed here ----------------


def hk2_generators(p, D):
    """(name, degree, exterior) of each generator of H*(K(Z/p,2)) through
    D, in the order basis labels list them."""
    if p == 2:
        return [(f"u{2**j + 1}", 2**j + 1, False) for j in range(D) if 2**j + 1 <= D]
    gens = [("y0", 2, False)]
    gens += [(f"g{j}", 2 * (p**j + 1), False) for j in range(1, D) if 2 * (p**j + 1) <= D]
    gens += [(f"u{i}", 2 * p**i + 1, True) for i in range(D) if 2 * p**i + 1 <= D]
    return gens


def parse_label(label):
    """{generator name: exponent} of a basis label such as "y0^2 u0"."""
    if label == "1":
        return {}
    out = {}
    for token in label.split():
        name, _, e = token.partition("^")
        out[name] = int(e or 1)
    return out


def times(p, gens, a, b):
    """(sign, label) of the product a . b of two monomials, or None when an
    exterior exponent passes 1.  Reordering a . b moves each odd generator
    of b left past the odd generators of a listed after it."""
    order = {name: i for i, (name, _, _) in enumerate(gens)}
    odd = {name for name, deg, _ in gens if p != 2 and deg % 2}
    prod = dict(a)
    for name, e in b.items():
        prod[name] = prod.get(name, 0) + e
    if any(ext and prod.get(name, 0) > 1 for name, _, ext in gens):
        return None
    swaps = sum(
        ea * eb
        for na, ea in a.items()
        for nb, eb in b.items()
        if na in odd and nb in odd and order[na] > order[nb]
    )
    label = " ".join(
        name if prod[name] == 1 else f"{name}^{prod[name]}"
        for name, _, _ in gens
        if prod.get(name)
    )
    return (-1) ** swaps, label or "1"


@pytest.mark.parametrize("p,D", [(2, 40), (3, 60), (5, 120), (7, 150)])
def test_hk2_q_maps_are_derivations(p, D):
    # Q_i(ab) = Q_i(a) b + (-1)^|a| a Q_i(b) for every basis element times a
    # generator, on either side (by induction on b, this gives every
    # product); it pins the Leibniz coefficients, which no rank oracle sees
    # (Q0(y0^2) = 2 y0 u0 at p = 3, not y0 u0)
    mod = build_HK2(p, D)
    gens = hk2_generators(p, D)
    assert {name for name, _, _ in gens} == {
        name for lbl, _ in basis_degrees(mod) for name in parse_label(lbl)
    }
    basis = [(lbl, d, parse_label(lbl)) for lbl, d in basis_degrees(mod)]
    singles = [(name, deg, {name: 1}) for name, deg, _ in gens]
    pairs = [pair for x in basis for g in singles for pair in ((x, g), (g, x))]
    checked = 0
    for qmap, shift in ((label_view(mod, "q0"), 1), (label_view(mod, "q1"), 2 * p - 1)):
        for (la, da, a), (lb, db, b) in pairs:
            ab = times(p, gens, a, b)
            if da + db + shift > D or ab is None:
                continue
            want = {}
            for t, c in qmap.get(la, {}).items():
                tb = times(p, gens, parse_label(t), b)
                if tb is not None:
                    want[tb[1]] = want.get(tb[1], 0) + tb[0] * c
            for t, c in qmap.get(lb, {}).items():
                at = times(p, gens, a, parse_label(t))
                if at is not None:
                    want[at[1]] = want.get(at[1], 0) + (-1) ** da * at[0] * c
            want = {t: c % p for t, c in want.items() if c % p}
            # Q(a b) = sign Q(the basis element a b reorders to)
            got = {t: c * ab[0] % p for t, c in qmap.get(ab[1], {}).items()}
            assert got == want, (shift, la, lb)
            checked += 1
    assert checked > 1000


# (2, 70) reaches E[66]; (5, 300) reaches TP_5[g_3] at 252
@pytest.mark.parametrize(
    "p,D", [(2, 60), (3, 40), (2, 70), (5, 300)]
)
def test_margolis_homology_of_hk2_matches_closed_forms(p, D):
    mod = build_HK2(p, D + 2 * p - 1)
    q0 = margolis_homology(mod, "Q0", D)
    q1 = margolis_homology(mod, "Q1", D)
    assert q0 == q0_homology_closed(p, D).c
    assert q1 == q1_homology_closed(p, D).c


def test_margolis_homology_margin_is_enforced():
    mod = build_HK2(2, 20)
    with pytest.raises(ValueError):
        margolis_homology(mod, "Q1", 20)
    with pytest.raises(ValueError):
        margolis_homology(mod, "Q0", 20)
    assert len(margolis_homology(mod, "Q0", 19)) == 20


# -- the non-free pieces ------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_piece_N(p):
    n = _N(p)
    n.validate()
    if p == 2:
        assert degrees(n) == [5, 7, 8, 9, 10]
        top_q0, top_q1 = 5, 9
    else:
        assert degrees(n) == [7, 11, 12]
        top_q0, top_q1 = 7, 11
    h0 = margolis_homology(n, "Q0", 14)
    h1 = margolis_homology(n, "Q1", 14)
    assert [d for d, v in enumerate(h0) if v] == [top_q0] and h0[top_q0] == 1
    assert [d for d, v in enumerate(h1) if v] == [top_q1] and h1[top_q1] == 1


def test_piece_L3_mod_2():
    l3 = _L(2, 3, 0)
    l3.validate()
    assert degrees(l3) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert margolis_homology(l3, "Q0", 9) == [0] * 10
    h1 = margolis_homology(l3, "Q1", 9)
    assert [d for d, v in enumerate(h1) if v] == [1, 6]


def test_piece_M_suspensions():
    m4 = _M(2, 4)
    assert degrees(m4) == [17, 18]
    m7 = _M(2, 7)
    assert min(degrees(m7)) == 129
    assert degrees(m7) == [129 + d for d in range(8)]
    m2 = _M(3, 2)
    assert degrees(m2) == [19, 20]
    with pytest.raises(ValueError):
        _M(2, 3)
    with pytest.raises(ValueError):
        _M(3, 1)


def times_q(mod, D):
    """mod x E[q], q Q-trivial in degree |q|: R + qR when mod is R."""
    return mod.times([GenSpec("q", q_degree(mod.p), 1)], D)


@pytest.mark.parametrize("p", [2, 3])
def test_R_times_Eq_below_q_has_no_q_part(p):
    q = q_degree(p)
    below = times_q(_R(p, q - 1), q - 1)
    assert (below.cutoff, below.by_degree) == (q - 1, {})


def test_assemble_T_builds_R_once(monkeypatch):
    calls = []
    real = model_module._R

    def counted(p, D):
        calls.append((p, D))
        return real(p, D)

    monkeypatch.setattr(model_module, "_R", counted)
    assemble_T(3, 120)
    assert calls == [(3, 120)]


# (5, 120) and (7, 300) cover T at primes above 3, past M_2 (bottom 51 and 99)
@pytest.mark.parametrize(
    "p,D", [(2, 50), (3, 40), (5, 120), (7, 300)]
)
def test_nonfree_model_carries_all_margolis_homology(p, D):
    """unit + T has the same Q0- and Q1-homology as the full cohomology,
    degreewise: the leftover part of the module is free."""
    full = build_HK2(p, D)
    model = assemble_T(p, D)
    assert model.cutoff == D
    top = D - (2 * p - 1)
    for which in ("Q0", "Q1"):
        assert margolis_homology(model, which, top) == margolis_homology(full, which, top)


# -- free part ----------------------------------------------------------------


def test_free_summand_generator_counts_mod_2():
    g = free_part_ps(2, 120)
    assert [g[d] for d in range(6)] == [0, 0, 1, 0, 0, 0]
    assert g[79] == 245
    assert all(c >= 0 for c in g.c)


def test_free_summand_generator_counts_mod_3():
    g = free_part_ps(3, 100)
    assert g[0] == 0 and g[1] == 0
    assert g[2] == 1  # E1<y0> = {2, 3, 7, 8} splits off freely
    assert all(c >= 0 for c in g.c)


# each window past the first two reaches one more M_j: M_6 at 65, M_3 at 55, M_3 at 251
@pytest.mark.parametrize("p,D", [(2, 50), (3, 40), (2, 70), (3, 120), (5, 260)])
def test_free_part_total_agrees_with_module_subtraction(p, D):
    total = free_part_total_ps(p, D)
    by_modules = build_HK2(p, D).ps() - assemble_T(p, D).ps()
    assert total == by_modules


def test_ps_audit_builds_no_leibniz_module(monkeypatch):
    # the model side counts H*K2's monomials as a series product, and T
    # takes its monomials through `times`: no Leibniz Q-map is built
    def refuse(*args):
        raise AssertionError("ps_audit built a Leibniz monomial module")

    build_HK2.cache_clear()
    monkeypatch.setattr(margolis_module, "_module_from_monomials", refuse)
    assert model_module.ps_audit(3, 200)["ok"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_model_reads_only_the_module_type_of_the_oracle(p, monkeypatch):
    # T's constructors and the closed-form series build no H*(K2), rank no
    # Q-map and resolve nothing: only E1Module, GenSpec and EXACT are read
    def refuse(*args):
        raise AssertionError("the model called the oracle")

    D = 6 * p**2
    want = build_HK2(p, D).ps() - free_part_total_ps(p, D)
    for name in ("build_HK2", "hk2_generators", "_module_from_monomials",
                 "margolis_homology", "strip_free", "ext_bruteforce"):
        monkeypatch.setattr(margolis_module, name, refuse)
    assert assemble_T(p, D).ps() == want
    for series in (free_part_ps, free_part_total_ps, trivial_summand_counts,
                   q0_homology_closed, q1_homology_closed):
        assert len(series(p, D).c) == D + 1


def test_trivial_summand_counts_are_shifted_generator_counts():
    g = free_part_ps(2, 30)
    t = trivial_summand_counts(2, 30)
    assert all(t[d] == g[d - 4] for d in range(4, 31))
    assert t[0] == t[1] == t[2] == t[3] == 0


# -- brute-force Ext ----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_ext_of_ground_field_is_h0_v_polynomial(p):
    w1 = 2 * p - 2  # codegree drop per power of v
    ext = ext_bruteforce(ground_field(p), (-2 * w1, 0), 4)
    expected = {
        (-w1 * b, s): 1 for b in range(3) for s in range(b, 5)
    }
    assert ext == expected


@pytest.mark.parametrize("p,d", [(2, 6), (3, 4)])
def test_ext_of_free_module_is_socle_only(p, d):
    mod = free_on_one_generator(p, d)
    mod.validate()
    ext = ext_bruteforce(mod, (0, d + 2 * p + 2), 3)
    assert ext == {(d + 2 * p, 0): 1}


def test_ext_of_N_mod_2_window():
    ext = ext_bruteforce(_N(2), (0, 12), 4)
    assert ext == {
        (8, 0): 1,
        (10, 0): 1,
        (8, 1): 1,
        (5, 2): 1,
        (5, 3): 1,
        (5, 4): 1,
        (3, 3): 1,
        (3, 4): 1,
        (1, 4): 1,
    }


def test_ext_of_N_mod_3_has_q_tower_and_bottom_class():
    ext = ext_bruteforce(_N(3), (0, 12), 3)
    # <c> at codegree 4p = 12 with vc = h0 c = 0, and the v^{1+e}q ladder
    # at (2p+1-(2p-2)e, 1+e) carrying an infinite h0 tower.
    assert ext == {
        (12, 0): 1,
        (7, 1): 1,
        (7, 2): 1,
        (7, 3): 1,
        (3, 2): 1,
        (3, 3): 1,
    }


def test_ext_of_M4_mod_2_is_one_v_tower():
    ext = ext_bruteforce(_M(2, 4), (12, 20), 3)
    assert ext == {(18, 0): 1, (16, 1): 1, (14, 2): 1, (12, 3): 1}


def test_ext_of_M5_mod_2_is_two_chained_v_towers():
    ext = ext_bruteforce(_M(2, 5), (28, 36), 2)
    assert ext == {
        (34, 0): 1,
        (36, 0): 1,
        (32, 1): 1,
        (34, 1): 1,
        (30, 2): 1,
        (32, 2): 1,
    }


def test_ext_of_M3_mod_3_is_two_chained_v_towers():
    ext = ext_bruteforce(_M(3, 3), (52, 60), 2)
    assert ext == {
        (56, 0): 1,
        (60, 0): 1,
        (52, 1): 1,
        (56, 1): 1,
        (52, 2): 1,
    }


def test_ext_window_margin_is_enforced():
    mod = build_HK2(2, 40)
    with pytest.raises(ValueError):
        ext_bruteforce(mod, (0, 40), 4)


@pytest.mark.parametrize("p, n_max, s_max", ((2, 12, 3), (3, 20, 2)))
def test_ext_cutoff_is_the_margin_ext_bruteforce_enforces(p, n_max, s_max):
    need = ext_cutoff(p, n_max, s_max)
    assert need == n_max - s_max + (2 * p - 1) * (s_max + 1)
    ext_bruteforce(build_HK2(p, need), (0, n_max), s_max)
    with pytest.raises(ValueError, match=f"through {need}, cutoff is {need - 1}"):
        ext_bruteforce(build_HK2(p, need - 1), (0, n_max), s_max)


def test_validate_rejects_broken_anticommutator():
    basis = [("y", 2), ("a", 3), ("b", 7), ("c", 8)]
    q0 = {"y": {"a": 1}, "b": {"c": 1}}
    mod = E1Module.from_labels(3, EXACT, basis, q0, {"y": {"b": 1}, "a": {"c": 1}})  # should be -1
    with pytest.raises(ValueError, match="Q0Q1 \\+ Q1Q0 != 0 on y"):
        mod.validate()
    E1Module.from_labels(3, EXACT, basis, q0, {"y": {"b": 1}, "a": {"c": 2}}).validate()


def test_from_labels_and_validate_reject_malformed_modules():
    basis = [("m", 0), ("m0", 1), ("m1", 3), ("m01", 4)]
    with pytest.raises(ValueError, match="duplicate basis label 'm0'"):
        E1Module.from_labels(2, EXACT, basis + [("m0", 5)], {}, {})
    with pytest.raises(ValueError, match="q1\\[m0\\] is not degree \\+3"):
        E1Module.from_labels(2, EXACT, basis, {"m": {"m0": 1}}, {"m0": {"m1": 1}})
    with pytest.raises(ValueError, match="q0\\[m1\\] stores a zero coefficient"):
        E1Module.from_labels(2, EXACT, basis, {"m": {"m0": 1}, "m1": {"m01": 2}}, {}).validate()
    free = E1Module.from_labels(
        2, EXACT, basis, {"m": {"m0": 1}, "m1": {"m01": 1}}, {"m": {"m1": 1}, "m0": {"m01": 1}}
    )
    free.validate()
    assert [(d, ts) for d, ts in free.q1.items()] == [(0, [(0, 0, 1)]), (1, [(0, 0, 1)])]


# -- monomial bases against the recursions bounded_exponents replaced --------


def ref_truncated_trivial(p, gens, D, head):
    """Reference: TP_{p-1}[g_head] x TP_p[others] as a Q-trivial module,
    by recursion over the generators."""
    basis = []
    heights = [(p - 1 if g.name == f"g{head}" else p) - 1 for g in gens]

    def rec(i, label_parts, deg):
        if i == len(gens):
            basis.append((" ".join(label_parts) if label_parts else "1", deg))
            return
        rec(i + 1, label_parts, deg)
        for e in range(1, heights[i] + 1):
            d2 = deg + e * gens[i].degree
            if d2 > D:
                break
            name = gens[i].name if e == 1 else f"{gens[i].name}^{e}"
            rec(i + 1, label_parts + [name], d2)

    rec(0, [], 0)
    return E1Module.from_labels(p, D, basis, {}, {})


def ref_R(p, D):
    """Reference R: each M_j tensored with its cofactor; at p = 2 the
    exterior e_k are TP_2 generators."""
    summands = []
    first, name = (4, "e") if p == 2 else (2, "g")
    j = first
    while (2**j + 1 if p == 2 else 2 * p**j + 1) <= D:
        gens = []
        k = j
        while 2 * (p**k + 1) <= D:
            gens.append(GenSpec(f"{name}{k}", 2 * (p**k + 1)))
            k += 1
        head = None if p == 2 else j
        cofactor = ref_truncated_trivial(p, gens, D, head)
        summands.append(from_spelled(ref_tensor(_M(p, j), cofactor)))
        j += 1
    return from_spelled(ref_direct_sum(summands)) if summands else E1Module(p, D)


def labelled_degrees(mod):
    return sorted((d, lbl) for d in mod.by_degree for lbl in mod.labels(d))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_R_basis_matches_the_recursive_cofactor(p):
    sizes = []
    for D in (0, 20, 61, 150, 300, 500):
        got = labelled_degrees(_R(p, D))
        assert got == labelled_degrees(ref_R(p, D)), D
        sizes.append(len(got))
    assert sizes[-1] > sizes[-2] > 0


def ref_hk2_monomials(gens, D):
    """Reference: the recursion that listed H*K2's monomials, exterior
    (top = 1) exponents <= 1."""
    found = []

    def rec(i, acc, left):
        if i == len(gens):
            found.append(tuple(acc))
            return
        rec(i + 1, acc, left)
        spec = gens[i]
        top = left // spec.degree if spec.top is None else spec.top
        for e in range(1, top + 1):
            if e * spec.degree > left:
                break
            acc.append((i, e))
            rec(i + 1, acc, left - e * spec.degree)
            acc.pop()

    rec(0, [], D)
    return found


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hk2_basis_matches_the_recursive_enumeration(p, monkeypatch):
    seen = []
    real = margolis_module._module_from_monomials

    def record(p_, gens, D, images0, images1):
        seen.append((gens, D))
        return real(p_, gens, D, images0, images1)

    monkeypatch.setattr(margolis_module, "_module_from_monomials", record)
    D = {2: 70, 3: 90, 5: 120, 7: 150}[p]
    mod = margolis_module.build_HK2.__wrapped__(p, D)
    (gens, _), = seen
    want = []
    for m in ref_hk2_monomials(gens, D):
        degree = sum(gens[g].degree * e for g, e in m)
        label = " ".join(
            gens[g].name if e == 1 else f"{gens[g].name}^{e}" for g, e in m
        )
        want.append((degree, label or "1"))
    assert labelled_degrees(mod) == sorted(want)
    assert any(g.top == 1 for g in gens) == (p != 2)


# -- the Leibniz builder and the integer-indexed Ext against the label loops --


def ref_normalize(blocks, gens, p):
    """Reference: sort generator blocks by index with the Koszul sign and
    merge exponents; None when an exponent passes its generator's cap."""
    seq = [(g, e) for g, e in blocks if e > 0]
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1][0] > seq[j][0]:
            if p != 2:
                pa = (gens[seq[j - 1][0]].degree * seq[j - 1][1]) & 1
                pb = (gens[seq[j][0]].degree * seq[j][1]) & 1
                if pa and pb:
                    sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    out = []
    for g, e in seq:
        if out and out[-1][0] == g:
            e += out[-1][1]
            if gens[g].top is not None and e > gens[g].top:
                return None
            out[-1] = (g, e)
        else:
            out.append((g, e))
    return sign, tuple(out)


def ref_derive(m, images, gens, p):
    """Reference: an odd derivation applied to one monomial, block by
    block, each product re-sorted by ref_normalize."""
    out = {}
    blocks = list(m)
    prefix = 0
    for pos, (g, e) in enumerate(blocks):
        img = images.get(g)
        gdeg = gens[g].degree
        if img:
            lead = e % p
            if lead:
                par = prefix + (e - 1) * gdeg
                outer = -1 if (p != 2 and par & 1) else 1
                head = blocks[:pos] + ([(g, e - 1)] if e > 1 else [])
                tail = blocks[pos + 1 :]
                for tmono, tcoeff in img.items():
                    nm = ref_normalize(head + list(tmono) + tail, gens, p)
                    if nm is None:
                        continue
                    s2, mono2 = nm
                    out[mono2] = (out.get(mono2, 0) + lead * outer * s2 * tcoeff) % p
        prefix += e * gdeg
    return {k: v for k, v in out.items() if v}


def ref_module_from_monomials(p, gens, D, images0, images1):
    """Reference builder: images as {generator: {monomial: coeff}}."""
    monos = sorted(
        (sum(gens[g].degree * e for g, e in m), m) for m in ref_hk2_monomials(gens, D)
    )
    labels = {}
    for d, m in monos:
        labels[m] = " ".join(
            gens[g].name if e == 1 else f"{gens[g].name}^{e}" for g, e in m
        ) or "1"
    qmaps = ({}, {})
    for d, m in monos:
        for images, qmap, shift in ((images0, qmaps[0], 1), (images1, qmaps[1], 2 * p - 1)):
            if d + shift > D:
                continue
            img = ref_derive(m, images, gens, p)
            if img:
                qmap[labels[m]] = {labels[t]: c for t, c in img.items()}
    return E1Module.from_labels(p, D, [(labels[m], d) for d, m in monos], *qmaps)


def ref_ext_bruteforce(M, n_range, s_max):
    """Reference: the Koszul complex laid out by label lookups, one
    boundary-matrix row per target basis element."""
    n0, n1 = n_range
    p, w = M.p, 2 * M.p - 1
    need = max((n1 - s) + w * (s + 1) for s in range(s_max + 1))
    if need > M.cutoff:
        raise ValueError(
            f"window needs module degrees through {need}, cutoff is {M.cutoff}"
        )

    views = {"q0": label_view(M, "q0"), "q1": label_view(M, "q1")}

    def components(tp, sigma):
        return [(sigma - b, b, M.labels(tp + sigma - b + w * b)) for b in range(sigma + 1)]

    @functools.lru_cache(maxsize=None)
    def rank_delta(tp, sigma):
        if sigma < 0:
            return 0
        src, tgt = components(tp, sigma), components(tp, sigma + 1)
        col_off, n_cols = {}, 0
        for a, b, basis in src:
            col_off[(a, b)] = n_cols
            n_cols += len(basis)
        row_off, row_pos, n_rows = {}, {}, 0
        for a, b, basis in tgt:
            row_off[(a, b)] = n_rows
            row_pos[(a, b)] = {lbl: i for i, lbl in enumerate(basis)}
            n_rows += len(basis)
        entries = []
        for a, b, basis in src:
            for qmap, key in ((views["q0"], (a + 1, b)), (views["q1"], (a, b + 1))):
                for j, lbl in enumerate(basis):
                    for t, c in qmap.get(lbl, {}).items():
                        entries.append((row_off[key] + row_pos[key][t], col_off[(a, b)] + j, c))
        return gf_rank_sparse(entries, n_rows, n_cols, p)

    out = {}
    for n in range(n0, n1 + 1):
        for s in range(s_max + 1):
            tp = n - s
            dim = sum(len(basis) for _, _, basis in components(tp, s))
            dim -= rank_delta(tp, s) + rank_delta(tp, s - 1)
            if dim < 0:
                raise ArithmeticError(f"negative Ext dimension at {(n, s)}")
            if dim:
                out[(n, s)] = dim
    return out


def hk2_inputs(p, D, monkeypatch):
    """The generators and images build_HK2(p, D) hands to the builder, with
    the images spelled as {generator: {monomial: coeff}}, and its module."""
    seen = []
    real = margolis_module._module_from_monomials

    def record(p_, gens, D_, images0, images1):
        seen.append((gens, images0, images1))
        return real(p_, gens, D_, images0, images1)

    monkeypatch.setattr(margolis_module, "_module_from_monomials", record)
    mod = margolis_module.build_HK2.__wrapped__(p, D)
    (gens, images0, images1), = seen
    spelled = [{g: {((h, f),): c} for g, (h, f, c) in im.items()} for im in (images0, images1)]
    return gens, spelled, mod


def module_layout(mod):
    """Everything the builders must agree on, insertion orders included."""
    return (
        mod.p,
        mod.cutoff,
        [(d, mod.labels(d)) for d in mod.by_degree],
        [(lbl, list(img.items())) for lbl, img in label_view(mod, "q0").items()],
        [(lbl, list(img.items())) for lbl, img in label_view(mod, "q1").items()],
    )


@pytest.mark.parametrize("p,D", [(2, 70), (3, 90), (5, 120), (7, 150)])
def test_hk2_leibniz_matches_the_derive_reference(p, D, monkeypatch):
    gens, (images0, images1), mod = hk2_inputs(p, D, monkeypatch)
    want = ref_module_from_monomials(p, gens, D, images0, images1)
    # the basis holds integer keys, and module_layout spells every one
    assert all(type(key) is int for keys in mod.by_degree.values() for key in keys)
    assert module_layout(mod) == module_layout(want)
    assert len(label_view(mod, "q0")) > 100 and len(label_view(mod, "q1")) > 50


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_R_q_maps_match_the_derive_reference(p):
    # R's Q-maps by label against the reference R, each M_j tensored with
    # its recursively listed cofactor by the label-keyed tensor; at p = 7
    # the window reaches M_3 (bottom 687), the first M_j with a Q1
    D = 800 if p == 7 else 300
    got, want = _R(p, D), ref_R(p, D)
    for which in ("q0", "q1"):
        assert label_view(got, which) == label_view(want, which)
        assert label_view(got, which)


# -- the positional constructions against label-keyed references -----------


def spelled(mod):
    """mod with every basis element and Q-image spelled by label."""
    by_degree = {d: mod.labels(d) for d in mod.by_degree}
    return mod.p, mod.cutoff, by_degree, label_view(mod, "q0"), label_view(mod, "q1")


def ref_direct_sum(mods):
    """Reference: the label-keyed direct sum, summand i's labels prefixed
    with "i:" and listed after summands 0..i-1 in each degree."""
    by_degree, q0, q1 = {}, {}, {}
    for i, mod in enumerate(mods):
        _, _, basis, m0, m1 = spelled(mod)
        for d in sorted(basis):
            by_degree.setdefault(d, []).extend(f"{i}:{lbl}" for lbl in basis[d])
        for qmap, out in ((m0, q0), (m1, q1)):
            for lbl, img in qmap.items():
                out[f"{i}:{lbl}"] = {f"{i}:{t}": c for t, c in img.items()}
    return mods[0].p, min(mod.cutoff for mod in mods), by_degree, q0, q1


def ref_tensor(a, b):
    """Reference: the label-keyed tensor product, Q(x*y) = Qx*y +
    (-1)^|x| x*Qy, products listed by total degree, then |x|, x, y."""
    p, cut_a, basis_a, a0, a1 = spelled(a)
    _, cut_b, basis_b, b0, b1 = spelled(b)
    cutoff = min(cut_a, cut_b)
    pairs = sorted(
        (
            (x, y, dx, dy)
            for dx in sorted(basis_a)
            for x in basis_a[dx]
            for dy in sorted(basis_b)
            if dx + dy <= cutoff
            for y in basis_b[dy]
        ),
        key=lambda pair: pair[2] + pair[3],
    )
    by_degree = {}
    for x, y, dx, dy in pairs:
        by_degree.setdefault(dx + dy, []).append(f"{x}*{y}")
    qmaps = []
    for qa, qb, shift in ((a0, b0, 1), (a1, b1, 2 * p - 1)):
        out = {}
        for x, y, dx, dy in pairs:
            if dx + dy + shift > cutoff:
                continue
            img = {f"{t}*{y}": c % p for t, c in qa.get(x, {}).items()}
            sign = -1 if p != 2 and dx & 1 else 1
            for t, c in qb.get(y, {}).items():
                img[f"{x}*{t}"] = (img.get(f"{x}*{t}", 0) + sign * c) % p
            img = {t: c for t, c in img.items() if c}
            if img:
                out[f"{x}*{y}"] = img
        qmaps.append(out)
    return (p, cutoff, by_degree, *qmaps)


def from_spelled(spelled_mod):
    """The E1Module of a spelled (p, cutoff, by_degree, q0, q1) tuple, its
    basis in the listed order."""
    p, cutoff, by_degree, q0, q1 = spelled_mod
    basis = [(lbl, d) for d, lbls in by_degree.items() for lbl in lbls]
    return E1Module.from_labels(p, cutoff, basis, q0, q1)


def ref_suspend(mod, shift):
    p, cutoff, basis, q0, q1 = spelled(mod)
    return p, min(cutoff + shift, EXACT), {d + shift: lbls for d, lbls in basis.items()}, q0, q1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_constructions_match_the_label_references(p):
    # the summands share degrees, so each one's targets start at their own
    # offset; the left factors of `times` have odd-degree elements under a
    # nonzero Q, and its right factor, Q-trivial, mixes a polynomial and a
    # truncated generator
    piece_n, free = _N(p), free_on_one_generator(p, 4)
    l2, l1_up = _L(p, 2, 0), _L(p, 1, 1)
    summands = [l2, piece_n, l1_up, free]
    gens = [GenSpec("y", 2 * p), GenSpec("z", 2 * p + 2, top=p - 1)]
    trivial = ref_module_from_monomials(p, gens, 40, {}, {})
    exterior_q = ref_module_from_monomials(p, [GenSpec("q", q_degree(p), 1)], 80, {}, {})
    cases = [
        (E1Module.direct_sum(summands), ref_direct_sum(summands)),
        (free.times(gens, 40), ref_tensor(free, trivial)),
        (piece_n.times(gens, 40), ref_tensor(piece_n, trivial)),
        (l1_up.times(gens, 40), ref_tensor(l1_up, trivial)),
        (l1_up, ref_suspend(_L(p, 1, 0), 1)),
        (times_q(_R(p, 80), 80), ref_tensor(_R(p, 80), exterior_q)),
    ]
    for got, want in cases:
        got.validate()
        assert spelled(got) == want
    summed = cases[0][0]
    assert any(len({lbl.split(":")[0] for lbl in summed.labels(d)}) > 1 for d in summed.by_degree)


@pytest.mark.parametrize(
    "p,n1,s1",
    [(2, 36, 8), (3, 48, 6), (5, 80, 5), (2, 20, 12), (3, 24, 4), (7, 60, 3)],
)
def test_ext_bruteforce_matches_the_label_reference_on_hk2(p, n1, s1):
    need = max((n1 - s) + (2 * p - 1) * (s + 1) for s in range(s1 + 1))
    mod = build_HK2(p, need)
    got = ext_bruteforce(mod, (0, n1), s1)
    assert got == ref_ext_bruteforce(mod, (0, n1), s1)
    assert sum(got.values()) > n1


SMALL_CASES = {
    "ground_field_p2": (lambda: ground_field(2), (-4, 0), 4),
    "ground_field_p5": (lambda: ground_field(5), (-16, 2), 5),
    "N_p2": (lambda: _N(2), (0, 12), 4),
    "N_p3_n_below_s": (lambda: _N(3), (0, 14), 6),
    "M5_p2": (lambda: _M(2, 5), (20, 40), 3),
    "M3_p3": (lambda: _M(3, 3), (40, 60), 2),
    "free_tensor_N_p3": (
        lambda: from_spelled(ref_tensor(free_on_one_generator(3, 4), _N(3))), (0, 30), 3
    ),
    "L3_tensor_N_p2": (lambda: from_spelled(ref_tensor(_L(2, 3, 0), _N(2))), (0, 20), 4),
    "N_plus_L2_p3": (
        lambda: E1Module.direct_sum([_N(3), _L(3, 2, 0)]), (0, 15), 4
    ),
    "N_suspended_p2": (lambda: from_spelled(ref_suspend(_N(2), 7)), (0, 20), 5),
    "R_times_Eq_p3": (lambda: times_q(_R(3, 80), 80), (40, 60), 3),
}


@pytest.mark.parametrize("case", sorted(SMALL_CASES))
def test_ext_bruteforce_matches_the_label_reference_on_small_modules(case):
    build, window, s_max = SMALL_CASES[case]
    mod = build()
    got = ext_bruteforce(mod, window, s_max)
    assert got == ref_ext_bruteforce(mod, window, s_max)
    assert got


def test_ext_cutoff_message_is_the_reference_one():
    mod = build_HK2(3, 40)
    with pytest.raises(ValueError) as got:
        ext_bruteforce(mod, (0, 30), 2)
    with pytest.raises(ValueError) as want:
        ref_ext_bruteforce(mod, (0, 30), 2)
    assert str(got.value) == str(want.value) == (
        "window needs module degrees through 43, cutoff is 40"
    )



# -- splitting off the free summands -------------------------------------------


def ext_window(p, n1, s1):
    """The cutoff the (0..n1, 0..s1) Ext window needs."""
    return max((n1 - s) + (2 * p - 1) * (s + 1) for s in range(s1 + 1))


def total_dim(mod: E1Module) -> int:
    return sum(map(len, mod.by_degree.values()))


@pytest.mark.parametrize(
    "p,n1,s1",
    [(2, 36, 8), (3, 48, 6), (5, 80, 5), (7, 90, 3), (2, 20, 12), (3, 24, 4)],
)
def test_stripped_ext_plus_free_socles_is_the_full_ext(p, n1, s1):
    mod = build_HK2(p, ext_window(p, n1, s1))
    stripped, free = strip_free(mod)
    stripped.validate()
    assert stripped.p == p and stripped.cutoff == mod.cutoff
    assert total_dim(stripped) < total_dim(mod) // 3
    got = ext_bruteforce(stripped, (0, n1), s1)
    for d, count in free.items():
        if d + 2 * p <= n1:
            got[d + 2 * p, 0] = got.get((d + 2 * p, 0), 0) + count
    assert got == ext_bruteforce(mod, (0, n1), s1)


@pytest.mark.parametrize("p,D", [(2, 60), (3, 80), (5, 120), (7, 150)])
def test_strip_counts_are_the_free_part_series(p, D):
    mod = build_HK2(p, D)
    stripped, free = strip_free(mod)
    stripped.validate()
    g = free_part_ps(p, D)
    assert [free.get(d, 0) for d in range(D - 2 * p + 1)] == g.c[: D - 2 * p + 1]
    assert all(d <= D - 2 * p for d in free)
    # four classes per free generator leave, and the labels that stay keep
    # their degree and their order
    assert total_dim(mod) - total_dim(stripped) == 4 * sum(free.values())
    for d in stripped.by_degree:
        order = {lbl: i for i, lbl in enumerate(mod.labels(d))}
        kept = [order[lbl] for lbl in stripped.labels(d)]
        assert kept == sorted(kept)


@pytest.mark.parametrize("p,D", [(2, 40), (3, 60), (5, 80), (7, 100)])
def test_stripped_margolis_homology_is_the_full_one(p, D):
    mod = build_HK2(p, D + 2 * p - 1)
    stripped, _ = strip_free(mod)
    for which in ("Q0", "Q1"):
        assert margolis_homology(stripped, which, D) == margolis_homology(mod, which, D)


def test_strip_of_free_and_non_free_modules():
    # a free module, free tensor anything included, strips to nothing
    p = 3
    free = free_on_one_generator(p, 4)
    stripped, counts = strip_free(from_spelled(ref_tensor(free, _N(p))))
    assert total_dim(stripped) == 0 and not stripped.q0 and not stripped.q1
    assert counts == {d + 4: 1 for d in (2 * p + 1, 4 * p - 1, 4 * p)}
    # a module with no free summand is left as it is
    mod = E1Module.direct_sum([_N(p), _L(p, 2, 0)])
    stripped, counts = strip_free(mod)
    assert counts == {}
    assert stripped.by_degree == mod.by_degree
    assert label_view(stripped, "q0") == label_view(mod, "q0")
    assert label_view(stripped, "q1") == label_view(mod, "q1")
    # E1<y0> = {2, 3, 7, 8} is free: it leaves once its top cell is below
    # the cutoff, and stays as it is while it is not
    stripped, counts = strip_free(build_HK2(p, 8))
    assert counts == {2: 1} and stripped.dim_at(2) == 0
    mod = build_HK2(p, 7)
    stripped, counts = strip_free(mod)
    assert counts == {}
    assert stripped.by_degree == mod.by_degree
    assert label_view(stripped, "q0") == label_view(mod, "q0")
    assert label_view(stripped, "q1") == label_view(mod, "q1")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strip_reduces_q_images_modulo_the_free_part(p):
    # m generates a free summand; Q0 n = n0 + m0 and Q1 n0 = m01 leave it
    # only modulo the free part
    w = 2 * p - 1
    basis = [("m", 2), ("n", 2), ("m0", 3), ("n0", 3), ("m1", 2 + w), ("m01", 3 + w)]
    q0 = {"m": {"m0": 1}, "n": {"n0": 1, "m0": 1}, "m1": {"m01": 1}}
    q1 = {"m": {"m1": 1}, "m0": {"m01": p - 1}, "n0": {"m01": 1}}
    mod = E1Module.from_labels(p, EXACT, basis, q0, q1)
    mod.validate()
    stripped, counts = strip_free(mod)
    stripped.validate()
    assert counts == {2: 1}
    assert stripped.by_degree == {2: ["n"], 3: ["n0"]}
    assert label_view(stripped, "q0") == {"n": {"n0": 1}}
    assert stripped.q1 == {}


# -- the one-pass strip against the all-degree reference -----------------------


def ref_strip_free(M):
    """Reference: the strip that groups every degree's Q-maps by source,
    then finds every degree's socle and generators, then every F_d, before
    it writes M' out."""
    p, w = M.p, 2 * M.p - 1
    q0, q1 = ({d: _by_source(t) for d, t in q.items()} for q in (M.q0, M.q1))
    socles = {}  # Q0Q1, as q0 and q1
    for d, images in q1.items():
        if d + 2 * p <= M.cutoff:
            after = q0.get(d + w, {})
            socles[d] = {
                s: [(t, c1 * c0) for m, c1 in img for t, c0 in after.get(m, ())]
                for s, img in images.items()
            }
    gens = {}
    for d in sorted(socles):
        span = Echelon(p)
        chosen = [s for s, vec in socles[d].items() if span.add(vec)]
        if chosen:
            gens[d] = chosen
    spans = {}
    for d in M.by_degree:
        span = spans[d] = Echelon(p)
        for s in gens.get(d, ()):
            span.add([(s, 1)])
        for img, d0 in ((q0, d - 1), (q1, d - w), (socles, d - 2 * p)):
            for s in gens.get(d0, ()):
                span.add(img[d0].get(s, ()))
    out = E1Module(p, M.cutoff, spell=M.spell)
    kept = {}
    for d, basis in M.by_degree.items():
        keep = [i for i in range(len(basis)) if i not in spans[d].rows]
        if keep:
            kept[d] = {i: j for j, i in enumerate(keep)}
            out.by_degree[d] = [basis[i] for i in keep]
    for q, qo, shift in ((q0, out.q0, 1), (q1, out.q1, w)):
        for d, new in kept.items():
            if d + shift not in kept or d not in q:
                continue
            img, span, target = q[d], spans[d + shift], kept[d + shift]
            triples = [
                (j, target[t], c) for i, j in new.items() for t, c in span.reduce(img.get(i, ()))
            ]
            if triples:
                qo[d] = triples
    return out, {d: len(s) for d, s in gens.items()}


# the ext-oracle windows (p = 7: the Ext test's 0..60, s <= 3), then a wider one each
@pytest.mark.parametrize(
    "p,D",
    [(2, ext_window(2, 36, 8)), (3, ext_window(3, 48, 6)), (5, ext_window(5, 80, 5)),
     (7, ext_window(7, 60, 3)), (2, 80), (3, 150), (5, 200), (7, 300)],
)
def test_one_pass_strip_matches_the_all_degree_reference(p, D):
    mod = build_HK2(p, D)
    got, got_free = strip_free(mod)
    want, want_free = ref_strip_free(mod)
    assert got_free == want_free and sum(got_free.values()) > 10
    assert sorted(got.by_degree) == sorted(want.by_degree)
    for d in want.by_degree:
        assert got.labels(d) == want.labels(d), d
    assert (got.q0, got.q1) == (want.q0, want.q1)
    assert got.q0 and got.q1 and got.cutoff == mod.cutoff


def test_strip_holds_a_window_of_degrees():
    # the all-degree strip peaked at 2.17 times the module it strips (3/100,
    # under tracemalloc), one that holds every degree's by-source Q-maps but
    # windows the rest at 1.40; the one-pass strip peaks at 0.61 of it
    p, D = 3, 100
    tracemalloc.start()
    try:
        mod = margolis_module.build_HK2.__wrapped__(p, D)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        strip_free(mod)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert held > 10**6
    assert peak < held, (peak, held)

"""Oracle layer: the E1-module model of H*(K(Z/p,2)), Margolis homology
against closed forms, the non-free piece decomposition, free-summand
counts, and the brute-force Ext calculator on small known modules."""

import pytest

from kuengine.margolis import (
    E1Module,
    EXACT,
    GenSpec,
    _M,
    assemble_T,
    build_HK2,
    build_piece,
    ext_bruteforce,
    free_part_ps,
    free_part_total_ps,
    margolis_homology,
    q0_homology_closed,
    q1_homology_closed,
    trivial_summand_counts,
)
from kuengine import margolis as margolis_module
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
    mod = E1Module(p, EXACT)
    mod.add("1", 0)
    return mod


def free_on_one_generator(p: int, d: int) -> E1Module:
    mod = E1Module(p, EXACT)
    mod.add("m", d)
    mod.add("m0", d + 1)
    mod.add("m1", d + 2 * p - 1)
    mod.add("m01", d + 2 * p)
    mod.q0 = {"m": {"m0": 1}, "m1": {"m01": 1}}
    mod.q1 = {"m": {"m1": 1}, "m0": {"m01": p - 1}}
    return mod


# -- the big module ---------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_hk2_dimensions_match_generator_count(p):
    mod = build_HK2(p, 40)
    assert mod.ps() == hk2_ps(p, 40)
    if p == 2:
        assert mod.basis_at(5) == ["u2 u3", "u5"]


@pytest.mark.parametrize("p", [2, 3])
def test_hk2_is_a_valid_e1_module(p):
    build_HK2(p, 30).validate()


def test_hk2_q_action_spot_checks_mod_2():
    mod = build_HK2(2, 40)
    assert mod.q0["u2"] == {"u3": 1}
    assert "u3" not in mod.q0  # Q0 u3 = 0
    assert mod.q1["u3"] == {"u3^2": 1}
    assert "u5" not in mod.q1  # Q1 u5 = 0
    assert mod.q0["u9"] == {"u5^2": 1}
    assert mod.q1["u9"] == {"u3^4": 1}
    assert mod.q0["u2 u3"] == {"u3^2": 1}  # Leibniz: u3*u3 + u2*0


def test_hk2_q_action_spot_checks_mod_3():
    mod = build_HK2(3, 30)
    assert mod.q0["y0"] == {"u0": 1}
    assert mod.q1["y0"] == {"u1": 1}
    assert mod.q0["u1"] == {"g1": 1}
    assert mod.q1["u0"] == {"g1": 2}  # the sign that makes Q0Q1 + Q1Q0 = 0
    assert mod.q1["u2"] == {"g1^3": 1}
    # Leibniz with the exterior square: Q0(y0 u0) = u0^2 + 0 = 0, no entry.
    assert "y0 u0" not in mod.q0


@pytest.mark.parametrize(
    "p,D", [(2, 60), (3, 40)]
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
    n = build_piece(p, "N")
    n.validate()
    if p == 2:
        assert sorted(n.degree_of.values()) == [5, 7, 8, 9, 10]
        top_q0, top_q1 = 5, 9
    else:
        assert sorted(n.degree_of.values()) == [7, 11, 12]
        top_q0, top_q1 = 7, 11
    h0 = margolis_homology(n, "Q0", 14)
    h1 = margolis_homology(n, "Q1", 14)
    assert [d for d, v in enumerate(h0) if v] == [top_q0] and h0[top_q0] == 1
    assert [d for d, v in enumerate(h1) if v] == [top_q1] and h1[top_q1] == 1


def test_piece_L3_mod_2():
    l3 = build_piece(2, "L", 3)
    l3.validate()
    assert sorted(l3.degree_of.values()) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert margolis_homology(l3, "Q0", 9) == [0] * 10
    h1 = margolis_homology(l3, "Q1", 9)
    assert [d for d, v in enumerate(h1) if v] == [1, 6]


def test_piece_M_suspensions():
    m4 = build_piece(2, "M", 4)
    assert sorted(m4.degree_of.values()) == [17, 18]
    m7 = build_piece(2, "M", 7)
    assert min(m7.degree_of.values()) == 129
    assert sorted(m7.degree_of.values()) == [129 + d for d in range(8)]
    m2 = build_piece(3, "M", 2)
    assert sorted(m2.degree_of.values()) == [19, 20]
    with pytest.raises(ValueError):
        build_piece(2, "M", 3)
    with pytest.raises(ValueError):
        build_piece(3, "M", 1)


@pytest.mark.parametrize(
    "p,D", [(2, 50), (3, 40)]
)
def test_nonfree_model_carries_all_margolis_homology(p, D):
    """unit + T has the same Q0- and Q1-homology as the full cohomology,
    degreewise: the leftover part of the module is free."""
    full = build_HK2(p, D)
    model = assemble_T(p, D, with_unit=True)
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


@pytest.mark.parametrize("p,D", [(2, 50), (3, 40)])
def test_free_part_total_agrees_with_module_subtraction(p, D):
    total = free_part_total_ps(p, D)
    by_modules = build_HK2(p, D).ps() - assemble_T(p, D, with_unit=True).ps(D)
    assert total == by_modules


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
    ext = ext_bruteforce(build_piece(2, "N"), (0, 12), 4)
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
    ext = ext_bruteforce(build_piece(3, "N"), (0, 12), 3)
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
    ext = ext_bruteforce(build_piece(2, "M", 4), (12, 20), 3)
    assert ext == {(18, 0): 1, (16, 1): 1, (14, 2): 1, (12, 3): 1}


def test_ext_of_M5_mod_2_is_two_chained_v_towers():
    ext = ext_bruteforce(build_piece(2, "M", 5), (28, 36), 2)
    assert ext == {
        (34, 0): 1,
        (36, 0): 1,
        (32, 1): 1,
        (34, 1): 1,
        (30, 2): 1,
        (32, 2): 1,
    }


def test_ext_of_M3_mod_3_is_two_chained_v_towers():
    ext = ext_bruteforce(build_piece(3, "M", 3), (52, 60), 2)
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


def test_validate_rejects_broken_anticommutator():
    mod = E1Module(3, EXACT)
    for lbl, d in (("y", 2), ("a", 3), ("b", 7), ("c", 8)):
        mod.add(lbl, d)
    mod.q0 = {"y": {"a": 1}, "b": {"c": 1}}
    mod.q1 = {"y": {"b": 1}, "a": {"c": 1}}  # should be -1
    with pytest.raises(ValueError):
        mod.validate()
    mod.q1["a"] = {"c": 2}
    mod.validate()


# -- monomial bases against the recursions bounded_exponents replaced --------


def ref_truncated_trivial(p, gens, D, head):
    """Reference: TP_{p-1}[g_head] x TP_p[others] as a Q-trivial module,
    by recursion over the generators."""
    mod = E1Module(p, D)
    heights = [(p - 1 if g.name == f"g{head}" else p) - 1 for g in gens]

    def rec(i, label_parts, deg):
        if i == len(gens):
            mod.add(" ".join(label_parts) if label_parts else "1", deg)
            return
        rec(i + 1, label_parts, deg)
        for e in range(1, heights[i] + 1):
            d2 = deg + e * gens[i].degree
            if d2 > D:
                break
            name = gens[i].name if e == 1 else f"{gens[i].name}^{e}"
            rec(i + 1, label_parts + [name], d2)

    rec(0, [], 0)
    return mod


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
        summands.append(_M(p, j).tensor(ref_truncated_trivial(p, gens, D, head)))
        j += 1
    return E1Module.direct_sum(summands) if summands else E1Module(p, D)


def labelled_degrees(mod):
    return sorted((d, lbl) for d, lbls in mod.by_degree.items() for lbl in lbls)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_R_basis_matches_the_recursive_cofactor(p):
    sizes = []
    for D in (0, 20, 61, 150, 300, 500):
        got = labelled_degrees(build_piece(p, "R", D=D))
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

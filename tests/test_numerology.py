import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from galdesk import numerology as num
from galdesk import root_datum as rdm

A1 = rdm.build_root_datum([("A", 1)])
A2 = rdm.build_root_datum([("A", 2)])
B2 = rdm.build_root_datum([("B", 2)])
C2 = rdm.build_root_datum([("C", 2)])
GL2 = rdm.gl_datum(2)


def test_signature_invariants():
    assert num.totally_real_signature(1) == num.FieldSignature(
        1, 1, 0, cm=False, local_degrees_above_p=(1,))
    with pytest.raises(num.NumerologyError):
        num.FieldSignature(3, 1, 2, cm=False, local_degrees_above_p=(3,))
    with pytest.raises(num.NumerologyError):
        num.FieldSignature(3, 1, 1, cm=True, local_degrees_above_p=(3,))
    with pytest.raises(num.NumerologyError):
        num.cm_signature(3)
    sig = num.cm_signature(4, (2,))
    assert sig.local_degrees_above_p == (2, 2)


def test_oddness_audit_gl2():
    # Ad(diag(1,-1)) on sl2 fixes the torus line only.
    mat = rdm.adjoint_torus_matrix(GL2, 5, (-1,))
    [(h0, odd)] = num.oddness_audit(GL2, [mat], p=5)
    assert (h0, odd) == (1, True)
    ident = rdm.adjoint_torus_matrix(GL2, 5, (1,))
    [(h0, odd)] = num.oddness_audit(GL2, [ident], p=5)
    assert (h0, odd) == (3, False)


def test_oddness_audit_sp4():
    # Split Cartan involution of sp4 with fixed space of dimension 4 = dim n.
    mat = rdm.adjoint_torus_matrix(C2, 7, (-1, -1))
    [(h0, odd)] = num.oddness_audit(C2, [mat], p=7)
    assert (h0, odd) == (4, True)


def test_oddness_audit_rejects_non_involution():
    bad = rdm.adjoint_torus_matrix(GL2, 5, (2,))
    with pytest.raises(num.NumerologyError):
        num.oddness_audit(GL2, [bad], p=5)


def test_place_above_p_terms():
    # B2: dim n = 4, dim b0 = 6; a place of degree f adds f dim n or f dim b0.
    sig = num.cm_signature(6, (2, 1))
    for mode, local in ((num.ORDINARY, 4), (num.NEARLY_ORDINARY, 6)):
        terms = num.wiles_difference(num.Scenario(B2, sig, mode)).terms
        assert [v for name, v in terms if name.startswith("v|p")] == [2 * local] * 2 + [local] * 2
        assert terms[2][0] == f"v|p[{mode},f=2]"
    with pytest.raises(num.NumerologyError, match="unknown mode 'crystalline'"):
        num.Scenario(GL2, sig, "crystalline")


def test_wiles_difference_headline_values():
    # Totally real + ordinary + odd: 0.
    scen = num.Scenario(GL2, num.totally_real_signature(2))
    assert num.wiles_difference(scen).difference == 0
    # Imaginary quadratic + nearly ordinary: +1 (one-variable deformation ring).
    scen = num.Scenario(GL2, num.cm_signature(2), mode=num.NEARLY_ORDINARY)
    assert num.wiles_difference(scen).difference == 1
    # Imaginary quadratic + ordinary on SL3: -2.
    scen = num.Scenario(A2, num.cm_signature(2))
    assert num.wiles_difference(scen).difference == -2


@pytest.mark.parametrize("rd", [A1, A2, B2])
@pytest.mark.parametrize("degree", [2, 4])
def test_wiles_difference_cm_menus(rd, degree):
    t0 = rdm.dimension_profile(rd)[3]
    sig_tr = num.totally_real_signature(degree)
    sig_cm = num.cm_signature(degree)
    assert num.wiles_difference(num.Scenario(rd, sig_tr)).difference == 0
    assert num.wiles_difference(
        num.Scenario(rd, sig_cm)).difference == -(degree // 2) * t0
    assert num.wiles_difference(
        num.Scenario(rd, sig_cm, mode=num.NEARLY_ORDINARY)
    ).difference == (degree // 2) * t0


@given(st.sampled_from([A1, A2, B2]), st.integers(0, 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_balanced_place_has_no_effect(rd, h0, cm):
    sig = num.cm_signature(2) if cm else num.totally_real_signature(2)
    base = num.Scenario(rd, sig)
    augmented = num.Scenario(rd, sig, finite_places=(num.FinitePlace(h0, h0),))
    assert num.wiles_difference(base).difference == num.wiles_difference(augmented).difference


def test_wiles_report_terms():
    scen = num.Scenario(GL2, num.cm_signature(2), mode=num.NEARLY_ORDINARY)
    rep = num.wiles_difference(scen)
    assert rep.difference == 1
    assert sum(v for _, v in rep.terms) == 1


def test_cm_parameter():
    assert num.cm_parameter(num.cm_signature(2), GL2) == 1
    assert num.cm_parameter(num.cm_signature(2), A2) == 2
    assert num.cm_parameter(num.cm_signature(4), B2) == 4
    with pytest.raises(num.NumerologyError):
        num.cm_parameter(num.totally_real_signature(2), GL2)


@pytest.mark.parametrize("rd,degree", [(A1, 2), (A2, 2), (B2, 2), (A1, 4), (B2, 4)])
def test_cm_parameter_matches_nearly_ordinary_difference(rd, degree):
    sig = num.cm_signature(degree)
    scen = num.Scenario(rd, sig, mode=num.NEARLY_ORDINARY)
    assert num.cm_parameter(sig, rd) == num.wiles_difference(scen).difference
    # Balanced away-from-p conditions leave the identity intact.
    balanced = num.Scenario(
        rd, sig, mode=num.NEARLY_ORDINARY,
        finite_places=(num.FinitePlace(2, 2), num.FinitePlace(0, 0)))
    assert num.cm_parameter(sig, rd) == num.wiles_difference(balanced).difference


def test_large_image_prime_bound():
    assert num.large_image_prime_bound(A2) == 29
    assert num.large_image_prime_bound(B2) == 19
    assert num.large_image_prime_bound(A1) == 19
    # Where the parity term binds: (2h - 2) z for an odd centre, (h - 1) z
    # for an even one.
    for typ, bound in ((("A", 6), 89), (("A", 9), 97), (("E", 8), 61)):
        assert num.large_image_prime_bound(rdm.build_root_datum([typ])) == bound, typ


def test_example_local_dims():
    assert num.example_local_dims(2, 5) == (0, 1, 0)
    assert num.example_local_dims(0, 5) == (1, 2, 0)
    assert num.example_local_dims(1, 5) == (0, 2, 1)
    # r is read mod p - 1.
    assert [num.example_local_dims(r, 7) for r in (7, -5, 12, -6, 8)] == \
        [(0, 2, 1), (0, 2, 1), (1, 2, 0), (1, 2, 0), (0, 1, 0)]
    for p in (2, 9):
        with pytest.raises(num.NumerologyError, match="p must be an odd prime"):
            num.example_local_dims(3, p)
    for r in range(0, 12):
        h0, h1, h2 = num.example_local_dims(r, 7)
        assert h1 == h0 + h2 + 1


def test_example_conditions_check():
    rep = num.example_conditions_check(A2, 2, 29)
    assert rep.very_good and rep.sqrt_in_base_field and rep.notes == ()
    rep = num.example_conditions_check(A1, 3, 19)
    assert rep.very_good and not rep.sqrt_in_base_field and len(rep.notes) == 1
    assert not num.example_conditions_check(rdm.build_root_datum([("A", 4)]), 2, 5).very_good
    with pytest.raises(num.NumerologyError):
        num.example_conditions_check(A1, 1, 19)
    with pytest.raises(num.NumerologyError):
        num.example_conditions_check(A1, 18, 19)  # r = 0 mod p-1


def test_sqrt_in_base_field_matches_legendre_symbol():
    # c^r has a square root in F_p exactly when Euler's criterion says so,
    # for any generator c of F_p^x; checked against the smallest one.
    for p in [q for q in range(3, 110) if all(q % d for d in range(2, q))]:
        c = next(c for c in range(2, p) if len({pow(c, k, p) for k in range(p - 1)}) == p - 1)
        for r in range(-5, 3 * p):
            if r % (p - 1) in (0, 1):
                continue
            rep = num.example_conditions_check(A1, r, p)
            assert rep.sqrt_in_base_field == (pow(pow(c, r, p), (p - 1) // 2, p) == 1), (p, r)

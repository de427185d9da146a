"""Acceptance criteria, one test per criterion.

Every assertion is exact (integer or reduced-rational equality); there
are no tolerances anywhere.  Each test prints a single pass line when it
completes; a failure raises with the criterion number in the message.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from fractions import Fraction

import pytest

from newtonspec import (
    GradedClass,
    build_model,
    delta_from_counts,
    delta_from_spectrum,
    ehrhart_polynomial,
    hodge_deligne,
    milnor_number,
    orbifold_contributions,
    parse_monomial,
    parse_polynomial,
    spectrum_at_infinity,
    toric_spectrum,
    toric_spectrum_box,
)
from newtonspec.cli import main as cli_main
from newtonspec.ehrhart import box_point_union

from conftest import (
    QUINTIC_AT_INFINITY,
    QUINTIC_SPECTRUM,
    SQUARE_AT_INFINITY,
    SQUARE_SPECTRUM,
    THREED_AT_INFINITY,
    THREED_SPECTRUM,
    series,
)
from test_graded import EXPECTED_TABLE, HINT, expected_class


def report(k, detail=""):
    print(f"[acceptance] criterion {k}: PASS {detail}".rstrip())


def test_criterion_1_square_example(square_model):
    """Toric spectrum, volume, spectrum at infinity and Milnor number of
    the two-variable square example."""
    spectrum = toric_spectrum(square_model)
    assert spectrum == series(*SQUARE_SPECTRUM), "criterion 1: toric spectrum"
    assert square_model.normalized_volume() == 8, "criterion 1: mu_P"
    assert spectrum_at_infinity(square_model) == series(*SQUARE_AT_INFINITY), (
        "criterion 1: spectrum at infinity"
    )
    assert milnor_number(square_model) == 5, "criterion 1: mu_f"
    report(1, "(square example: spectrum, mu_P=8, mu_f=5)")


def test_criterion_2_threed_example(threed_model):
    """Three-variable example: spectra, masses and the four individual
    box-point contributions."""
    spectrum = toric_spectrum(threed_model)
    assert spectrum == series(*THREED_SPECTRUM), "criterion 2: toric spectrum"
    assert threed_model.normalized_volume() == 12, "criterion 2: mu_P"
    assert spectrum_at_infinity(threed_model) == series(*THREED_AT_INFINITY), (
        "criterion 2: spectrum at infinity"
    )
    assert milnor_number(threed_model) == 8, "criterion 2: mu_f"

    contribs = dict(orbifold_contributions(threed_model))
    assert set(contribs) == {(0, 0, 0), (1, 1, 1), (1, 2, 2), (0, 1, 1)}, (
        "criterion 2: box point set"
    )
    # (z^2+2z+1), (z^2+2z+1) z^{1/2}, z+z^2, z^{1/2}+z^{3/2}
    assert contribs[(0, 0, 0)] == series(("0", 1), ("1", 2), ("2", 1))
    assert contribs[(1, 1, 1)] == series(("1/2", 1), ("3/2", 2), ("5/2", 1))
    assert contribs[(1, 2, 2)] == series(("1", 1), ("2", 1))
    assert contribs[(0, 1, 1)] == series(("1/2", 1), ("3/2", 1))
    report(2, "(three-variable example incl. per-box-point contributions)")


def test_criterion_3_product_table(square_poly, square_model):
    """All 64 entries of the reference product table, signs included."""
    from newtonspec import product_table, quotient_basis

    hint = [parse_monomial(t, square_poly.names) for t in HINT]
    basis = quotient_basis(square_poly, square_model, basis_hint=hint)
    table = product_table(basis)
    checked = 0
    for i in range(8):
        for j in range(8):
            want = expected_class(EXPECTED_TABLE[i][j], square_poly.names, square_model)
            assert table[i][j] == want, f"criterion 3: entry {HINT[i]} * {HINT[j]}"
            checked += 1
    assert checked == 64
    signed = {
        ("u", "u"): "-u^2*v^2",
        ("v", "v"): "-u^2*v^2",
        ("u", "u^2*v"): "-u^3*v^3",
        ("v", "u*v^2"): "-u^3*v^3",
    }
    for (a, b), text in signed.items():
        i, j = HINT.index(a), HINT.index(b)
        assert table[i][j] == expected_class(text, square_poly.names, square_model)
    report(3, "(64/64 table entries match, signed entries included)")


def test_criterion_4_simplex_families():
    """Standard simplices and the weighted three-variable simplices."""
    for n in (1, 2, 3, 4):
        p = parse_polynomial(" + ".join(f"u{i}" for i in range(1, n + 1)))
        m = build_model(p)
        spectrum = toric_spectrum(m)
        assert spectrum == series(("0", 1)), f"criterion 4: simplex n={n}"
        assert delta_from_counts(m).entries == (1,) + (0,) * n

    for c in (2, 3, 5):
        p = parse_polynomial(f"u1 + u2 + u3^{c}")
        m = build_model(p)
        spectrum = toric_spectrum(m)
        want = series(*((Fraction(i, c), 1) for i in range(c)))
        assert spectrum == want, f"criterion 4: c={c} spectrum"
        delta = delta_from_spectrum(spectrum, 3)
        assert delta.entries == (1, c - 1, 0, 0), f"criterion 4: c={c} delta"
        assert delta == delta_from_counts(m)
        ehr = ehrhart_polynomial(delta)
        # L(z) = C(z+3,3) + (c-1) C(z+2,3), checked against direct counts
        for ell in range(5):
            from math import comb

            assert ehr.evaluate(ell) == comb(ell + 3, 3) + (c - 1) * comb(ell + 2, 3)
            assert ehr.evaluate(ell) == m.lattice_count(ell), (
                f"criterion 4: c={c} L({ell})"
            )
    report(4, "(u1+...+un and u1+u2+u3^c for c in {2,3,5})")


def test_criterion_5_local_quintic(quintic_model):
    """The local quintic: Milnor numbers, both spectra, delta, Ehrhart."""
    assert milnor_number(quintic_model) == 11, "criterion 5: mu_0"
    assert quintic_model.normalized_volume() == 20, "criterion 5: mu_P"
    spectrum = toric_spectrum(quintic_model)
    assert spectrum == series(*QUINTIC_SPECTRUM), "criterion 5: local toric spectrum"
    assert spectrum.eval_at_one() == 20
    assert spectrum_at_infinity(quintic_model) == series(*QUINTIC_AT_INFINITY), (
        "criterion 5: local singularity spectrum"
    )
    delta = delta_from_spectrum(spectrum, 2)
    assert delta.entries == (1, 14, 5), "criterion 5: delta"
    assert delta == delta_from_counts(quintic_model)
    ehr = ehrhart_polynomial(delta)
    assert str(ehr) == "C(z+2,2) + 14 C(z+1,2) + 5 C(z,2)", "criterion 5: Ehrhart"
    for ell in range(4):
        assert ehr.evaluate(ell) == quintic_model.lattice_count(ell)
    report(5, "(local quintic: mu_0=11, mu_P=20, 20-term spectrum, delta=(1,14,5))")


def test_criterion_6_oracle_triangle(corpus):
    """Three spectrum routes agree on >= 50 randomized convenient supports."""
    assert len(corpus) >= 50
    assert any(e.model.n == 2 for e in corpus) and any(e.model.n == 3 for e in corpus)
    simplicial = non_simplicial = 0
    for entry in corpus:
        assert entry.oracle == entry.koszul, (
            f"criterion 6: oracle vs linear algebra on {entry.poly}"
        )
        assert entry.box == entry.oracle, (
            f"criterion 6: box vs oracle on {entry.poly}"
        )
        if entry.model.simplicial_fan:
            simplicial += 1
        else:
            non_simplicial += 1
    assert non_simplicial >= 1, "criterion 6: corpus must exercise non-simplicial fans"
    report(6, f"({len(corpus)} supports: {simplicial} simplicial, "
              f"{non_simplicial} non-simplicial)")


def test_criterion_7_property_suite(corpus):
    """Reciprocity, multiplicities, sub-one and z-coefficient identities,
    masses, delta cross-validation, duality and orbifold equality."""
    from newtonspec import SpectrumSeries, boundary_lattice_points

    for entry in corpus:
        m, spectrum = entry.model, entry.oracle
        n = m.n
        inf = entry.at_infinity
        assert inf.reflect(n) == inf, f"criterion 7: reciprocity on {entry.poly}"
        assert all(e > 0 for e in inf.exponents()), "criterion 7: positivity"
        assert spectrum.coefficient(0) == 1, "criterion 7: multiplicity at zero"
        sub_one = SpectrumSeries(
            {e: c for e, c in m.value_histogram(1).items() if e < 1}
        )
        assert spectrum.restrict_below(1) == sub_one, "criterion 7: sub-one identity"
        assert spectrum.coefficient(1) == boundary_lattice_points(m) - n, (
            "criterion 7: z-coefficient identity"
        )
        assert spectrum.eval_at_one() == entry.mu, "criterion 7: mass"
        assert entry.delta_spec[0] == 1 and sum(entry.delta_spec) == entry.mu
        assert entry.delta_spec == entry.delta_counts, "criterion 7: delta routes"
        if m.simplicial_fan:
            origin = (0,) * n
            assert hodge_deligne(m, origin).reflect(n) == hodge_deligne(
                m, origin, relative=True
            ), "criterion 7: Hodge-Deligne duality"
            assert entry.orbifold == spectrum, "criterion 7: orbifold dimensions"
    report(7, f"(all identities over {len(corpus)} supports)")


def test_criterion_8_degenerate_handling(capsys):
    """Rejections carry the right information and the right exit codes."""
    code = cli_main(["spectrum", "u + u*v"])
    err = capsys.readouterr().err
    assert code == 1 and "v" in err, "criterion 8: non-convenient names the axis"

    code = cli_main(["spectrum", "--local", "1 + x + y"])
    err = capsys.readouterr().err
    assert code == 1 and "constant" in err, "criterion 8: local constant term"

    code = cli_main(["check", "u + v + u*w + v*w + w^2"])
    out = capsys.readouterr()
    assert code == 2, "criterion 8: Newton-degenerate input exit code"
    assert out.out == "", "criterion 8: no wrong answer printed"
    report(8, "(rejections and exit codes)")

"""Randomized exact axiom verification, including deliberately broken ops."""

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scalefield import ComplexFraction, axiom_suite, scaled_ops, structure

F = Fraction


def nonzero_fractions(max_num=1000):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_num
    ).filter(lambda q: q != 0)


def names(report, passed):
    return {r.name for r in report.results if r.passed == passed}


def linear_inverse_ops(st_r):
    """Operations whose inverse carries a single t/s factor, not (t/s)^2."""
    w = st_r.ratio
    return replace(scaled_ops(st_r), inv=lambda a: w / a)


def test_rational_structure_passes_all():
    report = axiom_suite(structure("rational", F(3, 7), F(2)), samples=60, seed=1)
    assert report.all_passed
    assert "order_translation" in names(report, True)


def test_unscaled_structure_passes_all():
    assert axiom_suite(structure("rational", 1, 1), samples=30, seed=2).all_passed


def test_negative_ratio_keeps_order_axioms():
    report = axiom_suite(structure("rational", -5, 3), samples=60, seed=3)
    assert report.all_passed


def test_natural_structure_passes_without_inverses():
    report = axiom_suite(structure("natural", 6, 2), samples=60, seed=4)
    assert report.all_passed
    present = {r.name for r in report.results}
    assert "multiplicative_inverse" not in present
    assert "additive_inverse" not in present


def test_complex_structure_passes_with_complex_ratio():
    st_c = structure("complex", ComplexFraction(2, 3), ComplexFraction(1, -1))
    report = axiom_suite(st_c, samples=60, seed=5)
    assert report.all_passed
    present = {r.name for r in report.results}
    assert "conj_involution" in present
    assert "order_translation" not in present


def test_real_kind_passes():
    assert axiom_suite(structure("real", F(13, 10), 2), samples=30, seed=6).all_passed


def test_swapped_mul_factor_breaks_identity_and_inverse():
    st_r = structure("rational", 5, 2)
    good = scaled_ops(st_r)
    w = st_r.ratio

    def bad_mul(a, b):
        return w * a * b

    report = axiom_suite(st_r, samples=60, seed=7, ops=replace(good, mul=bad_mul))
    failed = names(report, False)
    assert "multiplicative_identity" in failed
    assert "multiplicative_inverse" in failed
    # bilinearity survives the corruption, so these still hold exactly
    assert "distributive" in names(report, True)
    assert "mul_commutative" in names(report, True)
    broken = [r for r in report.results if not r.passed]
    assert all(r.counterexample for r in broken)


def test_linear_inverse_mode_fails_inverse_axiom_only():
    st_r = structure("rational", 5, 2)
    report = axiom_suite(st_r, samples=60, seed=8, ops=linear_inverse_ops(st_r))
    assert names(report, False) == {"multiplicative_inverse"}


def test_linear_inverse_mode_is_silent_when_unscaled():
    st_r = structure("rational", 3, 3)
    report = axiom_suite(st_r, samples=30, seed=9, ops=linear_inverse_ops(st_r))
    assert report.all_passed


def test_report_is_deterministic():
    a = axiom_suite(structure("rational", F(3, 7), 2), samples=45, seed=11)
    b = axiom_suite(structure("rational", F(3, 7), 2), samples=45, seed=11)
    assert a == b


def test_report_lines_mention_failures():
    st_r = structure("rational", 5, 2)
    report = axiom_suite(st_r, samples=30, seed=12, ops=linear_inverse_ops(st_r))
    text = "\n".join(report.lines())
    assert "FAIL" in text and "pass" in text


@settings(max_examples=25)
@given(t=nonzero_fractions(100), s=nonzero_fractions(100), seed=st.integers(0, 99))
def test_random_rational_structures_pass(t, s, seed):
    assert axiom_suite(structure("rational", t, s), samples=12, seed=seed).all_passed


@settings(max_examples=15)
@given(re=st.fractions(max_denominator=40), im=st.fractions(max_denominator=40),
       seed=st.integers(0, 99))
def test_random_complex_structures_pass(re, im, seed):
    if re == 0 and im == 0:
        re = F(1)
    st_c = structure("complex", ComplexFraction(re, im), 1)
    assert axiom_suite(st_c, samples=12, seed=seed).all_passed

"""Randomized exact axiom verification, including deliberately broken ops."""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scalefield import (ComplexFraction, axiom_suite, axioms, scaled_ops,
                        structure)

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


# Small operands for the pinned reports below: numerators and denominators
# drawn from [-3, 3], so the pools hold zero, integers and negatives, the
# values whose text a wrong str of an exact scalar would move.
PIN_SPAN = 3
PIN_STRUCTURES = {
    "natural": structure("natural", 6, 2),
    "rational": structure("rational", 5, -2),
    "real": structure("real", F(13, 10), 2),
    "complex": structure("complex", ComplexFraction(2, 3),
                         ComplexFraction(1, -1)),
}


def corrupted_ops(st_x, corruption):
    ops = scaled_ops(st_x)
    w = st_x.ratio
    if corruption == "swapped mul factor":
        return replace(ops, mul=lambda a, b: w * a * b)
    if corruption == "linear inverse":
        return linear_inverse_ops(st_x)
    assert corruption == "flipped lt"
    return replace(ops, lt=lambda a, b: ops.lt(b, a))


# every line of each corrupted table's report at seed 6, 12 samples.  A
# natural structure has no inverse, and no negative value that a flipped
# order would misplace; a complex one has no order.
CORRUPTED_REPORTS = {
    ("natural", "swapped mul factor"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      FAIL  checks=4 failures=4  [9]",
        "distributive                 pass  checks=4 failures=0",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           pass  checks=4 failures=0",
    ],
    ("rational", "swapped mul factor"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      FAIL  checks=4 failures=3  [5/2]",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=3  [5/6]",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           pass  checks=4 failures=0",
    ],
    ("rational", "linear inverse"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      pass  checks=4 failures=0",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=3  [5/6]",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           pass  checks=4 failures=0",
    ],
    ("rational", "flipped lt"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      pass  checks=4 failures=0",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       pass  checks=4 failures=0",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           FAIL  checks=4 failures=1  [5, 5/6]",
    ],
    ("real", "swapped mul factor"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      FAIL  checks=4 failures=3  [-13/20]",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=3  [-13/60]",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           pass  checks=4 failures=0",
    ],
    ("real", "linear inverse"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      pass  checks=4 failures=0",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=3  [-13/60]",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           pass  checks=4 failures=0",
    ],
    ("real", "flipped lt"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      pass  checks=4 failures=0",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       pass  checks=4 failures=0",
        "order_translation            pass  checks=4 failures=0",
        "order_mul_positive           FAIL  checks=4 failures=1  [-13/10, -13/60]",
    ],
    ("complex", "swapped mul factor"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      FAIL  checks=4 failures=4  [-4+7i]",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=4  [14/3+8/3i]",
        "conj_involution              pass  checks=4 failures=0",
        "conj_additive                pass  checks=4 failures=0",
        "conj_multiplicative          FAIL  checks=4 failures=4  [5/2+1/2i, -11/4+29/4i]",
        "conj_fixes_identity          pass  checks=4 failures=0",
    ],
    ("complex", "linear inverse"): [
        "add_commutative              pass  checks=4 failures=0",
        "add_associative              pass  checks=4 failures=0",
        "additive_identity            pass  checks=4 failures=0",
        "mul_commutative              pass  checks=4 failures=0",
        "mul_associative              pass  checks=4 failures=0",
        "multiplicative_identity      pass  checks=4 failures=0",
        "distributive                 pass  checks=4 failures=0",
        "additive_inverse             pass  checks=4 failures=0",
        "multiplicative_inverse       FAIL  checks=4 failures=4  [14/3+8/3i]",
        "conj_involution              pass  checks=4 failures=0",
        "conj_additive                pass  checks=4 failures=0",
        "conj_multiplicative          pass  checks=4 failures=0",
        "conj_fixes_identity          pass  checks=4 failures=0",
    ],
}

# the text of each pool those reports walk
POOLS = {
    "natural": [
        "0", "9", "6", "0", "0", "3", "9", "6", "6", "0", "6", "9"
    ],
    "rational": [
        "-15/2", "5/2", "0", "-5/6", "-15/4", "-5", "0", "5", "5/6", "-15/2",
        "0", "5/2"
    ],
    "real": [
        "39/20", "-13/20", "0", "13/60", "39/40", "13/10", "0", "-13/10",
        "-13/60", "39/20", "0", "-13/20"
    ],
    "complex": [
        "1+8i", "-5/6-1/6i", "-23/4+11/4i", "5+1i", "-22/3-7/3i", "5/2+1/2i",
        "-11/4+29/4i", "-13/4+13/4i", "14/3+8/3i", "-19/12+17/12i",
        "1/2-5/2i", "-4+7i"
    ],
}


def test_corrupted_table_reports_are_pinned(monkeypatch):
    monkeypatch.setattr(axioms, "SPAN", PIN_SPAN)
    for (kind, corruption), lines in CORRUPTED_REPORTS.items():
        st_x = PIN_STRUCTURES[kind]
        report = axiom_suite(st_x, samples=12, seed=6,
                             ops=corrupted_ops(st_x, corruption))
        assert report.lines() == lines, (kind, corruption)
    for kind, texts in POOLS.items():
        values = axioms.draw_values(PIN_STRUCTURES[kind], 12, random.Random(6))
        assert [str(v) for v in values] == texts, kind


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


def test_suites_of_every_small_pool_size_pass():
    # checks that start near the end of the pool wrap round to its start
    for kind, st_x in PIN_STRUCTURES.items():
        for samples in range(3, 16):
            report = axiom_suite(st_x, samples=samples, seed=samples)
            assert report.all_passed, (kind, samples)


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

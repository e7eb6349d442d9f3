"""Value maps, relabeling, scaled operations, and the scaling group."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalefield import (
    BaseNumber,
    ComplexFraction,
    DivisionByZero,
    NotInBaseSet,
    NotRepresentable,
    OrderUndefined,
    ScaledVectorSpace,
    ZeroScaling,
    group_action,
    number_of,
    relabel,
    scaled_ops,
    structure,
    value_of,
)

F = Fraction


def nonzero_fractions(max_num=1000):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_num
    ).filter(lambda q: q != 0)


# --- value maps -----------------------------------------------------------


def test_natural_value_counts_strides():
    assert value_of(BaseNumber.natural(6), 2).value == 3


def test_natural_value_other_stride():
    assert value_of(BaseNumber.natural(12), 4).value == 3


def test_stride_element_has_unit_value():
    assert value_of(BaseNumber.natural(5), 5).value == 1


def test_unit_value_maps_to_stride_element():
    assert number_of(F(1), 5, kind="natural").payload == 5


def test_natural_not_in_base_set():
    with pytest.raises(NotInBaseSet):
        value_of(BaseNumber.natural(7), 2)


def test_natural_value_without_preimage():
    with pytest.raises(NotRepresentable):
        number_of(F(3, 2), 2, kind="natural")


def test_rational_value_map():
    assert value_of(BaseNumber.rational(7), 3).value == F(7, 3)


def test_rational_round_trip():
    assert number_of(F(7, 3), 3, kind="rational").payload == 7


def test_zero_scale_rejected():
    with pytest.raises(ZeroScaling):
        value_of(BaseNumber.rational(1), 0)


def test_exact_scalars_enter_through_one_checked_path():
    with pytest.raises(TypeError, match="must be exact"):
        structure("rational", 1.5, 2)
    with pytest.raises(TypeError, match="must be exact"):
        relabel(F(1), 0.5, 1)
    assert structure("rational", 5, 2).factor_t == F(5)
    assert type(structure("rational", 5, 2).factor_t) is F
    # strings have one parser, with one exponent bound
    for make in (lambda: BaseNumber("rational", "1e5000"),
                 lambda: relabel("1e5000", 1, 1)):
        with pytest.raises(ValueError, match="limit of 4300"):
            make()
    with pytest.raises(ValueError, match="invalid decimal"):
        BaseNumber("rational", "1e")


def test_zero_is_scale_fixed():
    for s in (F(1), F(2), F(-3), F(1, 7)):
        assert value_of(BaseNumber.rational(0), s).value == 0


@given(payload=nonzero_fractions(), s1=nonzero_fractions(), s2=nonzero_fractions())
def test_only_zero_is_scale_fixed(payload, s1, s2):
    a = BaseNumber.rational(payload)
    v1 = value_of(a, s1).value
    v2 = value_of(a, s2).value
    if s1 != s2:
        assert v1 != v2
    else:
        assert v1 == v2


@given(payload=st.fractions(max_denominator=100), s=nonzero_fractions())
def test_number_of_inverts_value_of(payload, s):
    a = BaseNumber.rational(payload)
    assert number_of(value_of(a, s), s) == a


# --- relabeling -----------------------------------------------------------


def test_relabel_matches_stride_change():
    assert relabel(F(3), 4, 2).value == 6


def test_relabel_is_identity_at_same_level():
    assert relabel(F(5, 3), F(7, 2), F(7, 2)).value == F(5, 3)


def test_relabel_two_hops_equals_direct():
    hop = relabel(relabel(F(5), 6, 3), 3, 1)
    assert hop.value == relabel(F(5), 6, 1).value == 30


@given(v=st.fractions(max_denominator=100), t=nonzero_fractions(),
       u=nonzero_fractions(), s=nonzero_fractions())
def test_relabel_composition(v, t, u, s):
    assert relabel(relabel(v, u, t).value, t, s).value == relabel(v, u, s).value


def test_relabel_complex_ratio():
    i = ComplexFraction(0, 1)
    out = relabel(ComplexFraction(2, 0), i, 1, kind="complex")
    assert out.value == ComplexFraction(0, 2)


# --- scaled operations ----------------------------------------------------


def test_mul_absorbs_identity_factor():
    ops = scaled_ops(structure("rational", 2, 1))
    assert ops.identity == 2
    assert ops.mul(F(3), ops.identity) == 3


def test_add_is_plain():
    ops = scaled_ops(structure("rational", 7, 3))
    assert ops.add(F(1, 3), F(2, 3)) == 1


def test_inverse_uses_squared_factor():
    ops = scaled_ops(structure("rational", 4, 1))
    assert ops.inv(F(2)) == 8
    assert ops.mul(F(2), ops.inv(F(2))) == ops.identity == 4


def test_inverse_of_zero_rejected():
    ops = scaled_ops(structure("rational", 4, 1))
    with pytest.raises(DivisionByZero):
        ops.inv(F(0))


def test_linear_inverse_mode_misses_identity():
    st_r = structure("rational", 4, 1)
    ops = scaled_ops(st_r)
    linear_inverse = st_r.ratio / F(2)  # a single t/s factor, not (t/s)^2
    assert ops.mul(F(2), linear_inverse) == 1 != ops.identity


def test_naturals_have_no_inverse():
    ops = scaled_ops(structure("natural", 4, 2))
    assert ops.inv is None
    assert ops.identity == 2


def test_order_reverses_with_sign():
    ops = scaled_ops(structure("rational", -1, 1))
    assert ops.lt(F(3), F(2))
    assert not ops.lt(F(2), F(3))


def test_order_plain_for_same_sign():
    ops = scaled_ops(structure("rational", 3, 5))
    assert ops.lt(F(2), F(3))


def test_order_undefined_for_complex():
    ops = scaled_ops(structure("complex", ComplexFraction(0, 1), 1))
    with pytest.raises(OrderUndefined):
        ops.lt(ComplexFraction(1), ComplexFraction(2))


def test_conj_with_imaginary_ratio():
    i = ComplexFraction(0, 1)
    ops = scaled_ops(structure("complex", i, 1))
    a = ComplexFraction(3, 2)
    assert ops.conj(a) == ComplexFraction(-3, 2)
    assert ops.conj(ops.conj(a)) == a
    assert ops.conj(ops.identity) == ops.identity


@given(re=st.fractions(max_denominator=50), im=st.fractions(max_denominator=50),
       wr=nonzero_fractions(50), wi=st.fractions(max_denominator=50))
def test_conj_is_involution_and_multiplicative(re, im, wr, wi):
    w = ComplexFraction(wr, wi)
    ops = scaled_ops(structure("complex", w, 1))
    a = ComplexFraction(re, im)
    b = ComplexFraction(im, re)
    assert ops.conj(ops.conj(a)) == a
    assert ops.conj(ops.mul(a, b)) == ops.mul(ops.conj(a), ops.conj(b))


@given(v=nonzero_fractions(), t=nonzero_fractions(), s=nonzero_fractions())
def test_scaled_mul_tracks_underlying_product(v, t, s):
    ops = scaled_ops(structure("rational", t, s))
    w = t / s
    assert ops.mul(w * v, w * v) == w * (v * v)


# --- scaling group --------------------------------------------------------


def test_action_by_reciprocal_level_is_unit():
    c = F(3, 7)
    assert group_action(1 / c, c) == 1


def test_action_composition_is_abelian():
    a = group_action(F(2), group_action(F(3, 5), F(7)))
    b = group_action(F(3, 5), group_action(F(2), F(7)))
    assert a == b == F(42, 5)


def test_action_rejects_zero():
    with pytest.raises(ZeroScaling):
        group_action(F(0), F(2))


@given(t=nonzero_fractions(), u=nonzero_fractions(), c=nonzero_fractions())
def test_action_is_group_homomorphism(t, u, c):
    via_product = group_action(t * u, c)
    via_steps = group_action(t, group_action(u, c))
    assert via_product == via_steps


# --- scaled vector spaces -------------------------------------------------


def test_identity_scalar_acts_as_identity():
    vs = ScaledVectorSpace(3, structure("rational", 5, 2))
    ops = scaled_ops(vs.scalars)
    v = (F(1), F(-2), F(7, 3))
    assert vs.smul(ops.identity, v) == v


def test_linear_smul_mode_breaks_identity_action():
    vs = ScaledVectorSpace(2, structure("rational", 5, 2))
    ops = scaled_ops(vs.scalars)
    v = (F(1), F(0))
    # the bare t/s factor in place of s/t misses the identity action
    linear = tuple(vs.scalars.ratio * ops.identity * x for x in v)
    assert linear != v
    assert vs.smul(ops.identity, v) == v


def test_vadd_is_componentwise():
    vs = ScaledVectorSpace(2, structure("rational", 5, 2))
    assert vs.vadd((F(1), F(2)), (F(3), F(4))) == (F(4), F(6))


@given(c=nonzero_fractions(50), x=st.fractions(max_denominator=50),
       y=st.fractions(max_denominator=50), t=nonzero_fractions(50),
       s=nonzero_fractions(50))
def test_norm_squared_is_homogeneous(c, x, y, t, s):
    scalars = structure("rational", t, s)
    vs = ScaledVectorSpace(2, scalars)
    line = ScaledVectorSpace(1, scalars)
    ops = scaled_ops(scalars)
    v = (x, y)
    lhs = vs.norm_squared(vs.smul(c, v))
    rhs = ops.mul(line.norm_squared((c,)), vs.norm_squared(v))
    assert lhs == rhs


@given(c=st.fractions(max_denominator=50), x=st.fractions(max_denominator=50),
       y=st.fractions(max_denominator=50), u=st.fractions(max_denominator=50),
       w=st.fractions(max_denominator=50))
def test_smul_distributes_over_vadd(c, x, y, u, w):
    vs = ScaledVectorSpace(2, structure("rational", 5, 2))
    a, b = (x, y), (u, w)
    assert vs.smul(c, vs.vadd(a, b)) == vs.vadd(vs.smul(c, a), vs.smul(c, b))


def test_norm_squared_nonnegative():
    vs = ScaledVectorSpace(2, structure("rational", 3, 2))
    assert vs.norm_squared((F(-3), F(4))) == F(2, 3) * 25

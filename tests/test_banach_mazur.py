import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projconst.banach_mazur import (
    PRIOR_BOUND_SQ,
    Clause,
    NonExactParameterError,
    SeqOperator,
    bm_params,
    bound_g,
    build_model,
    compare_with_prior_bound,
    operator_norm_window,
    optimize_closed_form,
    optimize_numeric,
    unit,
    verify_inverse,
)

A_STAR = 1.0 + math.sqrt(3.0)
G_STAR = 9.0 + 6.0 * math.sqrt(3.0)
IDENTITY = SeqOperator((Clause(1, 0, 1, 0, F(1)),), "I")


def sup_norm(vec):
    return max((abs(x) for x in vec.values()), default=F(0))


def op(*clauses, descriptor="demo"):
    return SeqOperator(tuple(Clause(*c) for c in clauses), descriptor)


class TestParams:
    def test_a_four(self):
        p = bm_params(4)
        assert p.exact
        assert (p.mu, p.nu, p.b, p.root) == (F(1, 4), F(3, 4), F(4, 3), F(3))
        assert p.bound == F(9, 2)
        assert p.bound_sq == F(81, 4)

    def test_a_three_halves(self):
        for a in (F(3, 2), "3/2"):
            p = bm_params(a)
            assert p.exact
            assert p.root == F(2)
            assert p.nu == F(4, 3)
            assert p.b == F(3, 4)
            assert p.bound == F(14, 3)

    def test_a_twelve(self):
        p = bm_params(12)
        assert p.root == F(5)
        assert p.bound == F(35, 6)

    def test_non_square_parameter_stays_float(self):
        p = bm_params(2)
        assert not p.exact
        assert isinstance(p.bound, float)
        assert abs(p.root - math.sqrt(5.0)) < 1e-12
        assert abs(p.bound_sq - 20.0) < 1e-9

    def test_exact_float_input(self):
        # 4.0 is exactly 4, so nothing forces the float path
        assert bm_params(4.0).exact

    @pytest.mark.parametrize("bad", [0, -1, F(-1, 2), "0", "x"])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            bm_params(bad)

    def test_json_document(self):
        doc = bm_params(4).to_json_dict()
        assert doc == {"a": "4", "mu": "1/4", "nu": "3/4", "b": "4/3",
                       "root": "3", "K": "9/2", "g": "81/4", "exact": True}

    @given(p=st.integers(2, 60), q=st.integers(1, 59))
    @settings(max_examples=80, deadline=None)
    def test_exact_family_identities(self, p, q):
        # a with 2a+1 = (p/q)^2; p > q makes a positive
        if p <= q:
            p, q = q + 1, p
        a = F(p * p - q * q, 2 * q * q)
        params = bm_params(a)
        assert params.exact
        assert params.root == F(p, q)
        assert params.root * params.root == 2 * a + 1
        assert params.nu == params.root / a
        assert params.b * params.nu == 1
        assert params.mu * a == 1
        assert params.bound == 2 * params.nu + params.root
        assert params.bound_sq == params.bound ** 2
        assert params.bound_sq == bound_g(a)


class TestBoundG:
    def test_exact_values(self):
        assert bound_g(F(4)) == F(81, 4)
        assert bound_g(F(3, 2)) == F(196, 9)
        assert bound_g(F(2)) == F(20)
        assert bound_g(1) == F(27)

    def test_float_path(self):
        assert abs(bound_g(2.0) - 20.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound_g(F(0))
        with pytest.raises(ValueError):
            bound_g(-1.0)

    @given(st.fractions(min_value=F(1, 32), max_value=50, max_denominator=32))
    @settings(max_examples=100, deadline=None)
    def test_polynomial_identity(self, a):
        assert a * a * bound_g(a) == (a + 2) ** 2 * (2 * a + 1)

    def test_power_of_two_grid(self):
        values = {a: bound_g(a) for a in (F(1, 2), F(1), F(2), F(4), F(8))}
        assert min(values.values()) == F(20)
        assert min(values, key=values.get) == F(2)
        for v in values.values():
            assert float(v) >= G_STAR - 1e-9


class TestOptimizers:
    def test_closed_form(self):
        opt = optimize_closed_form()
        assert abs(opt.a_star - A_STAR) < 1e-12
        assert abs(opt.g_star - G_STAR) < 1e-12
        assert opt.cubic_residual <= 1e-10
        assert abs(bound_g(opt.a_star) - opt.g_star) < 1e-12

    def test_golden_section_agrees(self):
        opt = optimize_numeric(0.5, 8.0, tol=1e-10)
        assert abs(opt.a_star - A_STAR) < 1e-7
        assert abs(opt.g_star - G_STAR) < 1e-12
        assert opt.iterations > 10

    @pytest.mark.parametrize("lo,hi,tol", [(0.0, 1.0, 1e-9), (2.0, 1.0, 1e-9),
                                           (-1.0, 4.0, 1e-9), (1.0, 4.0, 0.0)])
    def test_bracket_validation(self, lo, hi, tol):
        with pytest.raises(ValueError):
            optimize_numeric(lo, hi, tol)

    def test_comparison_with_prior(self):
        cmp = compare_with_prior_bound()
        assert cmp.strict
        assert cmp.prior == PRIOR_BOUND_SQ
        assert abs(cmp.prior - (11.0 + 6.0 * math.sqrt(2.0))) == 0.0
        assert abs(cmp.improvement - (cmp.prior - G_STAR)) < 1e-12
        assert round(cmp.improvement, 3) == 0.093
        doc = cmp.to_json_dict()
        assert doc["strict"] is True
        assert doc["improvement"] == cmp.improvement


class TestSeqOperator:
    def test_identity(self):
        assert IDENTITY.apply({3: F(2), 7: F(-1)}) == {3: F(2), 7: F(-1)}
        assert IDENTITY.row(5) == ((5, F(1)),)

    def test_sup_norm_and_unit(self):
        assert sup_norm(unit(4)) == F(1)
        assert sup_norm({0: F(-3), 2: F(2)}) == F(3)
        assert sup_norm({}) == F(0)

    def test_clause_semantics(self):
        # out[2k] += 5 * in[3k+1]
        demo = op((2, 0, 3, 1, F(5)))
        assert demo.apply(unit(1)) == {0: F(5)}
        assert demo.apply(unit(4)) == {2: F(5)}
        assert demo.apply(unit(0)) == {}
        assert demo.row(2) == ((4, F(5)),)
        assert demo.col(4) == ((2, F(5)),)

    def test_merge_cancellation(self):
        zero = op((1, 0, 1, 0, F(1)), (1, 0, 1, 0, F(-1)))
        assert zero.apply(unit(0)) == {}
        assert zero.row(0) == ()

    def test_offset_residue_reads_the_same_both_ways(self):
        # out[k + 5] += in[k]: a residue above its modulus is an offset
        shift = op((1, 5, 1, 0, F(1)))
        assert shift.apply(unit(0)) == {5: F(1)}
        assert shift.row(5) == ((0, F(1)),)
        assert shift.col(0) == ((5, F(1)),)
        assert shift.row(4) == ()
        assert operator_norm_window(shift, 8).lower == F(1)

    @pytest.mark.parametrize("fields", [(1, -1, 1, 0), (1, 0, 2, -1)])
    def test_negative_residue_is_rejected(self, fields):
        with pytest.raises(ValueError):
            Clause(*fields, F(1))

    @pytest.mark.parametrize("fields", [(0, 0, 1, 0), (1, 0, 0, 0), (-2, 0, 1, 0)])
    def test_modulus_below_one_is_rejected(self, fields):
        with pytest.raises(ValueError):
            Clause(*fields, F(1))

    def test_row_col_duality(self):
        fwd = build_model(4).forward
        for i in range(40):
            for j, coeff in fwd.row(i):
                assert (i, coeff) in fwd.col(j)
        for j in range(40):
            for i, coeff in fwd.col(j):
                assert (j, coeff) in fwd.row(i)

    def test_compose_descriptor(self):
        both = SeqOperator.compose(IDENTITY, IDENTITY)
        assert both.descriptor == "I∘I"
        assert both.apply(unit(2)) == unit(2)
        assert both.clauses == IDENTITY.clauses

    def test_split_embed_round_trip(self):
        split_even = op((1, 0, 2, 0, F(1)))
        split_odd = op((1, 0, 2, 1, F(1)))
        embed = op((2, 0, 1, 0, F(1)))
        zero_odd = op((2, 0, 2, 0, F(1)))
        x = {0: F(1), 1: F(2), 2: F(3), 5: F(-1)}
        even = split_even.apply(x)
        assert even == {0: F(1), 1: F(3)}
        assert split_odd.apply(x) == {0: F(2), 2: F(-1)}
        assert embed.apply(even) == {0: F(1), 2: F(3)}
        assert zero_odd.apply(x) == {0: F(1), 2: F(3)}


class TestNormWindow:
    def test_identity(self):
        window = operator_norm_window(IDENTITY, 64)
        assert window.lower == F(1)
        assert window.stabilized

    def test_zero_odd_projection(self):
        window = operator_norm_window(op((2, 0, 2, 0, F(1))), 64)
        assert window.lower == F(1)
        assert window.stabilized

    def test_window_validation(self):
        with pytest.raises(ValueError):
            operator_norm_window(IDENTITY, 1)


class TestModel:
    def test_rejects_inexact_parameter(self):
        with pytest.raises(NonExactParameterError):
            build_model(5)
        with pytest.raises(NonExactParameterError):
            build_model(F(1, 3))

    def test_accepts_rational_strings(self):
        assert build_model("3/2").params.root == F(2)

    def test_frozen_traces_a_four(self):
        model = build_model(4)
        w = model.forward
        assert w.apply(unit(0)) == {0: F(3)}
        assert w.apply({0: F(1), 3: F(2)}) == {0: F(3), 14: F(8, 3)}
        assert model.inverse.apply({0: F(3)}) == {0: F(1)}

    def test_round_trip_on_mixed_vector(self):
        model = build_model(F(3, 2))
        x = {0: F(1), 1: F(-2), 2: F(5, 3), 9: F(7)}
        assert model.inverse.apply(model.forward.apply(x)) == x
        assert model.forward.apply(model.inverse.apply(x)) == x

    @pytest.mark.parametrize("a,root,bound", [
        (F(3, 2), F(2), F(14, 3)),
        (F(4), F(3), F(9, 2)),
        (F(12), F(5), F(35, 6)),
    ])
    def test_shipped_parameter_table(self, a, root, bound):
        model = build_model(a)
        assert model.params.root == root
        assert model.bound == bound
        assert verify_inverse(model.forward, model.inverse, 64)
        fwd = operator_norm_window(model.forward, 512)
        inv = operator_norm_window(model.inverse, 512)
        # the dominant row weight in both directions is sqrt(2a+1)
        assert fwd.lower == root
        assert inv.lower == root
        assert fwd.stabilized and inv.stabilized
        assert fwd.lower <= bound and inv.lower <= bound
        assert fwd.lower * inv.lower <= bound ** 2

    def test_mismatched_pair_fails_inverse_check(self):
        fwd = build_model(4).forward
        inv = build_model(F(3, 2)).inverse
        assert not verify_inverse(fwd, inv, 16)

    def test_stage_structure(self):
        model = build_model(4)
        assert len(model.stages) == 3
        assert len(model.inverse_stages) == 3
        assert model.forward.descriptor == "U_a∘S∘T_a"
        assert model.inverse.descriptor == "T_a^-1∘S^-1∘U_a^-1"

    def test_stages_compose_to_the_recorded_operators(self):
        model = build_model(F(3, 2))
        t, s, u = model.stages
        for j in range(24):
            e = unit(j)
            staged = u.apply(s.apply(t.apply(e)))
            assert staged == model.forward.apply(e)
        ui, si, ti = model.inverse_stages
        for j in range(24):
            e = unit(j)
            staged = ti.apply(si.apply(ui.apply(e)))
            assert staged == model.inverse.apply(e)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hqflow import discretize, geometry
from hqflow import exprparse as ep


def ev(src, **env):
    return ep.eval(ep.parse(src), env)


class TestParseEval:
    def test_sum_of_squares(self):
        assert ev("x1^2 + x2^2", x1=1.0, x2=2.0) == 5.0

    def test_trailing_whitespace_and_call(self):
        assert ev("2*exp(u) ", u=0.0) == 2.0

    def test_unary_minus(self):
        assert ev("-x1", x1=3.0) == -3.0

    def test_precedence_mul_pow(self):
        assert ev("2+3*4^2") == 50.0

    def test_unary_minus_binds_looser_than_pow(self):
        assert ev("-2^2") == -4.0

    def test_pow_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_division_left_associative(self):
        assert ev("8/4/2") == 1.0

    def test_constants_predefined(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert ev("cos(pi)") == pytest.approx(-1.0, abs=1e-15)

    def test_unicode_minus_accepted(self):
        assert ev("−2^2") == -4.0

    def test_vectorized_eval(self):
        x = np.linspace(0.0, 1.0, 7)
        out = ep.eval(ep.parse("x1^2 + 1"), {"x1": x})
        assert np.array_equal(out, x**2 + 1.0)


class TestErrors:
    def test_unbalanced_paren_offset(self):
        with pytest.raises(ep.ParseError) as err:
            ep.parse("log(x1")
        assert err.value.offset == 7

    def test_unknown_identifier(self):
        with pytest.raises(ep.ParseError, match="unknown identifier"):
            ep.parse("x3 + 1")

    def test_time_is_not_a_variable(self):
        # no configuration slot admits t
        with pytest.raises(ep.ParseError, match="unknown identifier 't'"):
            ep.parse("t + 1")

    def test_unknown_function(self):
        with pytest.raises(ep.ParseError, match="unknown function"):
            ep.parse("cot(x1)")

    def test_unexpected_character(self):
        with pytest.raises(ep.ParseError) as err:
            ep.parse("x1 + @")
        assert err.value.offset == 6

    def test_trailing_input(self):
        with pytest.raises(ep.ParseError, match="trailing"):
            ep.parse("1 2")

    def test_division_by_zero(self):
        with pytest.raises(ep.EvalError, match="division by zero"):
            ev("x1/x2", x1=1.0, x2=0.0)

    def test_log_domain_error_names_value(self):
        with pytest.raises(ep.EvalError, match=r"log of non-positive.*-0\.5"):
            ev("log(x1)", x1=-0.5)

    def test_sqrt_domain_error(self):
        with pytest.raises(ep.EvalError, match="sqrt of negative"):
            ev("sqrt(x1 - 2)", x1=1.0)

    def test_domain_error_in_array_argument(self):
        x = np.array([1.0, 2.0, -3.0])
        with pytest.raises(ep.EvalError, match=r"-3\.0"):
            ep.eval(ep.parse("log(x1)"), {"x1": x})

    def test_power_domain_error(self):
        with pytest.raises(ep.EvalError, match="power"):
            ev("x1^0.5", x1=-1.0)

    def test_negative_power_of_zero_is_division_by_zero(self):
        # as "/" reports it, not as inf
        for src in ("x1^(0 - 0.5)", "x1^(0 - 2)"):
            with pytest.raises(ep.EvalError, match="division by zero"):
                ep.eval(ep.parse(src), {"x1": np.array([1.0, 0.0])})
        assert ev("x1^0.5", x1=0.0) == 0.0
        assert ev("x1^0", x1=0.0) == 1.0

    def test_unbound_variable(self):
        with pytest.raises(ep.EvalError, match="unbound"):
            ev("u + 1")

    def test_slot_validation(self):
        with pytest.raises(ep.ParseError, match="'u' is not allowed"):
            ep.parse("u + x1", slot="u0")
        assert ep.parse("u + x1", slot="f") == ep.BinOp(
            "+", ep.Var("u"), ep.Var("x1"))


def _central(ast, env, h=1e-6):
    """Central difference in u of `ast` at `env`."""
    hi, lo = dict(env, u=env["u"] + h), dict(env, u=env["u"] - h)
    return (ep.eval(ast, hi) - ep.eval(ast, lo)) / (2.0 * h)


class TestDiffU:
    def test_linear(self):
        d = ep.diff_u(ep.parse("1 - u"))
        assert ep.eval(d, {"u": 0.3}) == -1.0

    def test_exp_ratio(self):
        ast = ep.parse("exp(u)")
        env = {"u": 0.7}
        assert ep.eval(ep.diff_u(ast), env) / ep.eval(ast, env) == 1.0

    def test_quadratic(self):
        assert ep.eval(ep.diff_u(ep.parse("1 + u^2")), {"u": 1.0}) == 2.0

    def test_u_free_is_zero(self):
        ast = ep.parse("sin(x1)*exp(x2) - x2/3 + x1^x2 + abs(log(x2))")
        assert ep.diff_u(ast) == ep.Num(0)

    # each operator and function of the grammar, alone and under the
    # chain rule, with u in both operands of the binary ones
    @pytest.mark.parametrize("src", [
        "x1 + u", "u - x1", "x1 - u", "-u", "x1*u", "u*u", "x1/u", "u/x1",
        "u/(1 + u^2)", "u^3", "u^x1", "x1^u", "u^u", "(x1 + u)^(2*u)",
        "sin(x1*u)", "cos(u^2)", "exp(-u/2)", "log(x1 + u)", "sqrt(x1*u)",
        "abs(u - 1)", "tanh(x1*u)", "exp(sin(u))*log(1 + u^2)/sqrt(u)"])
    def test_matches_central_difference(self, src):
        ast, d = ep.parse(src), ep.diff_u(ep.parse(src))
        for x1 in (0.5, 1.3):
            for u in (0.3, 0.8, 2.5):
                env = {"x1": x1, "u": u}
                assert ep.eval(d, env) == pytest.approx(
                    _central(ast, env), rel=1e-6)

    def test_vectorized(self):
        u = np.linspace(0.2, 2.0, 9)
        d = ep.eval(ep.diff_u(ep.parse("u*log(u)")), {"u": u})
        assert np.allclose(d, np.log(u) + 1.0, rtol=1e-15, atol=0.0)

    def test_abs_slope_is_zero_at_zero(self):
        d = ep.diff_u(ep.parse("abs(u)"))
        u = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ep.eval(d, {"u": u}), [-1.0, 0.0, 1.0])

    def test_sign_is_not_in_the_grammar(self):
        with pytest.raises(ep.ParseError, match="unknown function"):
            ep.parse("sign(u)")

    def test_sqrt_slope_at_zero_is_a_domain_error(self):
        d = ep.diff_u(ep.parse("sqrt(u)"))
        with pytest.raises(ep.EvalError, match="division by zero"):
            ep.eval(d, {"u": np.array([1.0, 0.0])})

    def test_power_slope_at_zero_is_a_domain_error(self):
        # the slope 0.5 u^(-0.5) of u^0.5, like that of sqrt(u)
        d = ep.diff_u(ep.parse("u^0.5"))
        with pytest.raises(ep.EvalError, match="division by zero"):
            ep.eval(d, {"u": np.array([1.0, 0.0])})


def _fixed(values):
    """A read-only node array, as the solver's per-grid caches hold."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


# the benchmark's manufactured problem, with amplitude 0.1 and direction
# angle 0.7
_EX = f"{math.cos(0.7):.17g}*x1 + {math.sin(0.7):.17g}*x2"
_U_STAR = f"(x1^2 + x2^2)/2 + 0.1*exp(({_EX})/2)"
MANUFACTURED = {
    "f": f"((1 + 0.025*exp(({_EX})/2))/(2 + 0.025*exp(({_EX})/2)))"
         f" * exp(u - ({_U_STAR}))",
    "phi": f"1 + 0.05*({_EX})*exp(({_EX})/2) + ({_U_STAR}) - u",
}


class TestFold:
    """Fields fold their x-only parts at read-only node arrays."""

    @pytest.mark.parametrize("n_r", [4, 8, 16])
    def test_bit_equal_to_eval_at_the_cached_nodes(self, n_r):
        g = geometry.build_grid(geometry.Disk(1.0), n_r=n_r,
                                n_theta=2 * n_r)
        nodes = {"f": discretize._interior_nodes(g),
                 "phi": discretize._boundary_nodes(g)[:2]}
        rng = np.random.default_rng(n_r)
        for slot, src in MANUFACTURED.items():
            field = ep.as_field(src, slot)
            x, y = nodes[slot]
            for fn in (field, field.du):
                # the first call folds, the later ones reuse the fold
                for _ in range(3):
                    u = rng.uniform(-1.0, 1.0, x.shape)
                    want = ep.eval(fn.expr, {"x1": x, "x2": y, "u": u})
                    assert np.array_equal(fn(x, y, u),
                                          np.broadcast_to(want, x.shape))

    def test_later_calls_evaluate_only_the_u_dependent_rest(self,
                                                            monkeypatch):
        field = ep.as_field("1 + x1/3 - u", "phi")
        x, y = _fixed([0.5, 1.0]), _fixed([0.0, 0.0])
        calls = []
        evaluate = ep.eval

        def counted(node, env):
            calls.append(node)
            return evaluate(node, env)

        monkeypatch.setattr(ep, "eval", counted)
        field(x, y, np.zeros(2))
        calls.clear()
        assert np.array_equal(field(x, y, np.ones(2)),
                              [1.0 + 0.5 / 3 - 1.0, 1.0 + 1.0 / 3 - 1.0])
        # the minus, the folded 1 + x1/3 and u
        assert len(calls) == 3

    def test_writeable_nodes_are_read_at_every_call(self):
        field = ep.as_field("x1*u + x2", "f")
        x, y, u = np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.ones(2)
        assert np.array_equal(field(x, y, u), [1.5, 2.5])
        x[0] = 3.0
        assert np.array_equal(field(x, y, u), [3.5, 2.5])

    def test_new_read_only_nodes_fold_again(self):
        field = ep.as_field("x1*u", "f")
        y, u = _fixed([0.0, 0.0]), np.full(2, 2.0)
        for values in ([1.0, 2.0], [5.0, 7.0], [1.0, 2.0]):
            x = _fixed(values)
            assert np.array_equal(field(x, y, u), 2.0 * x)

    def test_x_only_domain_error_raises_at_every_call(self):
        field = ep.as_field("log(x1 - 2) + u", "f")
        x, y = _fixed([0.5, 1.0]), _fixed([0.0, 0.0])
        for _ in range(2):
            with pytest.raises(ep.EvalError, match="log of non-positive"):
                field(x, y, np.ones(2))

    def test_u_domain_error_after_a_successful_call(self):
        field = ep.as_field("x1 + sqrt(u)", "phi")
        x, y = _fixed([0.5, 1.0]), _fixed([0.0, 0.0])
        assert np.array_equal(field(x, y, np.array([4.0, 9.0])),
                              [2.5, 4.0])
        with pytest.raises(ep.EvalError, match="sqrt of negative"):
            field(x, y, np.array([4.0, -1.0]))


def test_pythagorean_sweep():
    rng = np.random.default_rng(7)
    ast = ep.parse("sin(x1)^2 + cos(x1)^2")
    for x in rng.uniform(-50.0, 50.0, size=200):
        assert ep.eval(ast, {"x1": x}) == pytest.approx(1.0, abs=1e-12)


def test_eval_deterministic_bits():
    ast = ep.parse("sin(x1)*exp(x2) - u/3 + x1^3")
    env = {"x1": 0.37, "x2": -1.2, "u": 2.5}
    a = ep.eval(ast, env)
    b = ep.eval(ast, env)
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


# hypothesis strategy for canonical ASTs (non-negative finite literals;
# negation is a node, so printed literals never carry a sign)
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(ep.Num),
    st.sampled_from([ep.Var(v) for v in ep.VARIABLES]),
)


def _extend(children):
    return st.one_of(
        children.map(ep.Neg),
        st.builds(ep.Call, st.sampled_from(sorted(ep.FUNCTIONS)), children),
        st.builds(ep.BinOp, st.sampled_from("+-*/^"), children, children),
    )


_ast = st.recursive(_leaf, _extend, max_leaves=25)
# the same trees, each an operator or function over a subtree that holds
# u, with u drawn as often as all other leaves together
_u_ast = _extend(st.recursive(st.one_of(st.just(ep.Var("u")), _leaf),
                              _extend, max_leaves=12)) \
    .filter(lambda ast: "u" in ep.free_vars(ast))


@settings(max_examples=100, deadline=None)
@given(_ast)
def test_print_parse_round_trip(ast):
    assert ep.parse(ep.to_str(ast)) == ast


def _finite(ast, env):
    """Value of `ast` at `env` as a float, None where it has none."""
    try:
        with np.errstate(all="ignore"):
            val = float(ep.eval(ast, env))
    except (ep.EvalError, OverflowError, ZeroDivisionError):
        return None
    return val if math.isfinite(val) else None


@settings(max_examples=300, deadline=None)
@given(ast=_u_ast, x=st.tuples(*[st.floats(-2.0, 2.0)] * 2),
       u=st.floats(-3.0, 3.0))
# the values underflow to 0 across the stencil while the exact slope is
# the subnormal -5e-324
@example(ast=ep.Neg(ep.BinOp("*", ep.Var("u"), ep.Num(5e-324))),
         x=(0.0, 0.0), u=0.0)
def test_diff_u_matches_central_differences(ast, x, u):
    """Where the expression is smooth and well conditioned near the
    point (its exact slope barely moves across the stencil, and central
    differences of steps h and h/4 agree), the exact slope agrees with
    them."""
    env = dict(zip(("x1", "x2"), x), u=u)
    h = 1e-4 * (1.0 + abs(u))
    vals = [_finite(ast, dict(env, u=u + k * h / 4)) for k in range(-4, 5)]
    d_ast = ep.diff_u(ast)
    slopes = [_finite(d_ast, dict(env, u=u + k * h / 4)) for k in (-1, 0, 1)]
    if None in vals + slopes:
        return
    d = slopes[1]
    coarse = (vals[8] - vals[0]) / (2 * h)
    fine = (vals[5] - vals[3]) / (h / 2)
    noise = (1e-12 * max(abs(vals[k]) for k in (0, 3, 5, 8))
             + np.finfo(float).tiny) / h
    if (max(abs(s - d) for s in slopes) > 1e-3 * abs(d) + noise
            or abs(coarse - fine) > 1e-6 * abs(fine) + noise):
        return
    assert abs(d - fine) <= 1e-4 * abs(fine) + 100 * noise

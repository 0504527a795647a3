"""Parser, evaluator and u-derivative for the scalar expressions f(x,u),
phi(x,u), u0(x) found in configuration files, and the constructor that
turns them into fields.

Grammar (EBNF)::

    expr   :=  term  (("+" | "-") term)*
    term   :=  unary (("*" | "/") unary)*
    unary  :=  "-" unary | power
    power  :=  atom ("^" unary)?
    atom   :=  NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

"^" is exponentiation and right-associative.  Unary minus binds looser
than "^", so "-2^2" evaluates to -4.  Recognized names: the variables
x1, x2, u; the constants pi and e (folded to literals at parse time);
the functions sin, cos, exp, log, sqrt, abs, tanh.  Whitespace is
ignored.  Parse errors carry a 1-based byte offset into the source.

ASTs are immutable after parse and evaluation is pure, so sharing across
threads is safe.

`diff_u` builds the exact derivative in u of an AST by the forward-mode
rules (Griewank & Walther, *Evaluating Derivatives*, SIAM 2008); a
subtree free of u differentiates to Num(0).  The derivative of abs is
sign(a), 0 at a = 0; `sign` exists only inside derivatives and is not
part of the grammar.  The derivative of sqrt at 0 divides by zero and
raises EvalError, like every other domain error.

`as_field` is the one place that turns an expression string, a parsed
expression or (for u0) a grid array into a field: a vectorized
callable fn(x, y, u) carrying `depends_on_u`, True or False.  A field
made from an expression keeps its AST as `expr`; fields of the f and
phi slots also carry `du(x, y, u)`, their exact derivative in u, built
once when the field is made.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Num", "Var", "Neg", "BinOp", "Call",
    "ExprError", "ParseError", "EvalError",
    "parse", "eval", "diff_u", "as_field", "free_vars", "to_str",
    "VARIABLES", "FUNCTIONS", "SLOT_VARS",
]

VARIABLES = ("x1", "x2", "u")

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}

# `sign` appears only in derivatives (of abs), never in parsed source
_EVAL_FUNCTIONS = dict(FUNCTIONS, sign=np.sign)

_CONSTANTS = {"pi": math.pi, "e": math.e}

# Variables each configuration slot may reference: u0 is a function of
# space only, while f and phi may also depend on the unknown u.
SLOT_VARS = {
    "u0": frozenset({"x1", "x2"}),
    "f": frozenset({"x1", "x2", "u"}),
    "phi": frozenset({"x1", "x2", "u"}),
}


class ExprError(ValueError):
    """Base class for expression parse and evaluation failures."""


class ParseError(ExprError):
    """Syntax or name error; `offset` is 1-based into the UTF-8 source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExprError):
    """Domain error (log/sqrt/power) or division by zero during eval."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()−])
    """,
    re.VERBOSE,
)


def _byte_offset(src, pos):
    """1-based byte offset of character position `pos` in `src`."""
    return len(src[:pos].encode("utf-8")) + 1


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             _byte_offset(src, pos))
        kind = m.lastgroup
        if kind != "ws":
            text = m.group()
            if text == "−":
                text = "-"
            tokens.append((kind, text, m.start()))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def fail(self, message, tok):
        raise ParseError(message, _byte_offset(self.src, tok[2]))

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.take()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, _ = tok = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "name":
            self.take()
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function {text!r}", tok)
                self.take()
                arg = self.expr()
                closer = self.peek()
                if closer[1] != ")":
                    self.fail("expected ')'", closer)
                self.take()
                return Call(text, arg)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if text in VARIABLES:
                return Var(text)
            self.fail(f"unknown identifier {text!r}", tok)
        if text == "(":
            self.take()
            node = self.expr()
            closer = self.peek()
            if closer[1] != ")":
                self.fail("expected ')'", closer)
            self.take()
            return node
        self.fail("expected a number, name, or '('", tok)


def parse(src, slot=None):
    """Parse `src` into an AST.

    If `slot` is one of "u0", "f", "phi", additionally reject variables
    that slot may not reference (u0 is space-only; f and phi may use u).
    Raises ParseError with a 1-based byte offset on any failure.
    """
    p = _Parser(src)
    node = p.expr()
    trailing = p.peek()
    if trailing[0] != "end":
        p.fail("unexpected trailing input", trailing)
    if slot is not None:
        allowed = SLOT_VARS[slot]
        for name in sorted(free_vars(node)):
            if name not in allowed:
                raise ParseError(
                    f"variable {name!r} is not allowed in the {slot!r} slot",
                    1)
    return node


def free_vars(ast):
    """Set of variable names referenced by `ast`."""
    if isinstance(ast, Num):
        return set()
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Neg):
        return free_vars(ast.arg)
    if isinstance(ast, Call):
        return free_vars(ast.arg)
    return free_vars(ast.left) | free_vars(ast.right)


def _first_offender(values, bad):
    """First value flagged by boolean mask `bad` (scalar or array)."""
    arr = np.asarray(values)
    mask = np.asarray(bad)
    if arr.ndim == 0:
        return float(arr)
    return float(arr.flat[int(np.argmax(mask.ravel()))])


def eval(ast, env):
    """Evaluate `ast` with variables bound by the dict `env`.

    Bindings may be floats or numpy arrays (broadcast together).  log or
    sqrt outside their domain, a power producing NaN, and division by an
    exact zero, also as a negative power of zero, all raise EvalError
    naming the offending value rather than propagating non-finite
    results.
    """
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            return env[ast.name]
        except KeyError:
            raise EvalError(f"unbound variable {ast.name!r}") from None
    if isinstance(ast, Neg):
        return -eval(ast.arg, env)
    if isinstance(ast, Call):
        arg = eval(ast.arg, env)
        if ast.func == "log":
            bad = np.less_equal(arg, 0.0)
            if np.any(bad):
                raise EvalError(
                    f"log of non-positive argument {_first_offender(arg, bad)}")
        elif ast.func == "sqrt":
            bad = np.less(arg, 0.0)
            if np.any(bad):
                raise EvalError(
                    f"sqrt of negative argument {_first_offender(arg, bad)}")
        return _EVAL_FUNCTIONS[ast.func](arg)
    left = eval(ast.left, env)
    right = eval(ast.right, env)
    op = ast.op
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        bad = np.equal(right, 0.0)
        if np.any(bad):
            raise EvalError("division by zero")
        return np.divide(left, right)
    if np.any(np.equal(left, 0.0) & np.less(right, 0.0)):
        raise EvalError("division by zero")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.power(left, right)
    bad = np.isnan(np.asarray(out))
    if np.any(bad):
        raise EvalError(
            f"power with base {_first_offender(left, bad)} outside domain")
    return out


_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _is(ast, value):
    return isinstance(ast, Num) and ast.value == value


def _neg(a):
    return _ZERO if _is(a, 0.0) else Neg(a)


def _add(a, b):
    if _is(a, 0.0):
        return b
    return a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a, b):
    if _is(b, 0.0):
        return a
    return _neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    return a if _is(b, 1.0) else BinOp("*", a, b)


def _div(a, b):
    if _is(a, 0.0):
        return _ZERO
    return a if _is(b, 1.0) else BinOp("/", a, b)


# g'(a) for each function g, given a and the node g(a) itself
_OUTER = {
    "sin": lambda a, ga: Call("cos", a),
    "cos": lambda a, ga: Neg(Call("sin", a)),
    "exp": lambda a, ga: ga,
    "log": lambda a, ga: _div(_ONE, a),
    "sqrt": lambda a, ga: _div(_ONE, _mul(_TWO, ga)),
    "abs": lambda a, ga: Call("sign", a),
    "tanh": lambda a, ga: BinOp("-", _ONE, BinOp("*", ga, ga)),
}


def diff_u(ast):
    """Exact derivative in u of `ast`, as an AST; Num(0) for an `ast`
    free of u."""
    if isinstance(ast, Num):
        return _ZERO
    if isinstance(ast, Var):
        return _ONE if ast.name == "u" else _ZERO
    if isinstance(ast, Neg):
        return _neg(diff_u(ast.arg))
    if isinstance(ast, Call):
        return _mul(_OUTER[ast.func](ast.arg, ast), diff_u(ast.arg))
    a, b = ast.left, ast.right
    da, db = diff_u(a), diff_u(b)
    if ast.op == "+":
        return _add(da, db)
    if ast.op == "-":
        return _sub(da, db)
    if ast.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if ast.op == "/":
        # (da - (a/b) db) / b divides by nothing the quotient does not
        return _div(_sub(da, _mul(ast, db)), b)
    # a^b = exp(b log a) where b depends on u; b a^(b-1) da where not
    if _is(db, 0.0):
        if _is(da, 0.0):
            return _ZERO
        b1 = Num(b.value - 1.0) if isinstance(b, Num) else _sub(b, _ONE)
        return _mul(_mul(b, BinOp("^", a, b1)), da)
    inner = _mul(db, Call("log", a))
    if not _is(da, 0.0):
        inner = _add(inner, _div(_mul(b, da), a))
    return _mul(ast, inner)


def as_field(obj, slot):
    """Normalize an expression string / parsed expression / grid array
    (u0 only) to a field for `slot` ("u0", "f" or "phi"), which picks the
    allowed variables.

    The field is a vectorized callable fn(x, y, u) carrying
    `depends_on_u`, and for f and phi also `du(x, y, u)`.  A field this
    function already made for the same slot is returned unchanged, so
    the flag and the derivative survive being passed on.
    """
    if getattr(obj, "field_slot", None) == slot:
        return obj
    if isinstance(obj, np.ndarray):
        if slot != "u0":
            raise TypeError(
                f"a grid array is accepted only for u0, not for {slot!r}; "
                f"pass an expression of (x1, x2, u)")

        def fn(x, y, u=None, _v=obj.astype(float, copy=True)):
            return np.broadcast_to(_v, np.shape(x))

        fn.depends_on_u = False
    elif isinstance(obj, str | Expr):
        if isinstance(obj, str):
            obj = parse(obj, slot=slot)
        fn = _bind(obj)
        if slot != "u0":
            fn.du = _bind(diff_u(obj))
    else:
        raise TypeError(f"cannot use {obj!r} as a field for slot {slot!r}")
    fn.field_slot = slot
    return fn


def _bind(ast):
    """`ast` as a vectorized callable of (x, y, u), broadcast to x, with
    its `depends_on_u` and `expr`."""
    uses_u = "u" in free_vars(ast)

    def fn(x, y, u=None):
        env = {"x1": np.asarray(x, dtype=float),
               "x2": np.asarray(y, dtype=float)}
        if uses_u:
            env["u"] = np.asarray(u, dtype=float)
        val = eval(ast, env)
        return np.broadcast_to(np.asarray(val, dtype=float), np.shape(x))

    fn.depends_on_u = uses_u
    fn.expr = ast
    return fn


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(ast):
    if isinstance(ast, BinOp):
        if ast.op in "+-":
            return _PREC_ADD
        if ast.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(ast, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_str(ast):
    """Render `ast` as source text; parse(to_str(ast)) == ast."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.func}({to_str(ast.arg)})"
    if isinstance(ast, Neg):
        inner = to_str(ast.arg)
        if _prec(ast.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    p = _prec(ast)
    left = to_str(ast.left)
    right = to_str(ast.right)
    if ast.op == "^":
        # right-associative: parenthesize a lower-or-equal left child
        if _prec(ast.left) <= p:
            left = f"({left})"
        if _prec(ast.right) < p:
            right = f"({right})"
        return f"{left}^{right}"
    # left-associative: a right child at the same level needs parens
    if _prec(ast.left) < p:
        left = f"({left})"
    if _prec(ast.right) <= p:
        right = f"({right})"
    return f"{left} {ast.op} {right}"

"""Tests for the Chisel lexer and parser."""

import copy
import itertools
import pickle

import pytest

from repro.chisel import ast
from repro.chisel.diagnostics import ChiselError, Diagnostic, SourceLocation
from repro.chisel.lexer import Token, TokenKind, tokenize
from repro.chisel.parser import _BINARY_LEVELS, Parser, parse_source
from repro.toolchain.compiler import ChiselCompiler

SIMPLE_MODULE = """
import chisel3._

class TopModule extends Module {
  val io = IO(new Bundle {
    val in = Input(UInt(8.W))
    val out = Output(UInt(8.W))
  })
  io.out := io.in + 1.U
}
"""


class TestLexer:
    def test_operators_are_maximal_munch(self):
        tokens = tokenize("a := b === c +& d")
        texts = [t.text for t in tokens if t.kind is TokenKind.OPERATOR]
        assert texts == [":=", "===", "+&"]

    def test_string_literals(self):
        tokens = tokenize('"b001".U')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "b001"

    def test_line_comments_are_skipped(self):
        tokens = tokenize("val x = 1 // comment here\nval y = 2")
        assert all("comment" not in t.text for t in tokens)

    def test_block_comments_are_skipped(self):
        tokens = tokenize("val x = /* hidden */ 1")
        texts = [t.text for t in tokens]
        assert "hidden" not in " ".join(texts)

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ChiselError):
            tokenize("val x = /* oops")

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("class val when otherwise")
        kinds = [t.kind for t in tokens[:4]]
        assert kinds[0] is TokenKind.KEYWORD
        assert kinds[1] is TokenKind.KEYWORD
        assert kinds[2] is TokenKind.IDENT  # when is a Chisel function, not a Scala keyword
        assert kinds[3] is TokenKind.IDENT

    def test_numbers_with_underscores_and_hex(self):
        tokens = tokenize("1_000 0xFF")
        assert tokens[0].text == "1_000"
        assert tokens[1].text == "0xFF"

    def test_compound_assignment_operator(self):
        tokens = tokenize("idx += 1")
        assert any(t.text == "+=" for t in tokens)


class TestTokenAndSourceLocation:
    """Both are ``__slots__`` classes that keep the frozen dataclasses' semantics."""

    def test_source_location_equality_hash_str_repr(self):
        loc = SourceLocation(3, 7, "A.scala")
        assert loc == SourceLocation(line=3, column=7, file="A.scala")
        assert loc != SourceLocation(3, 8, "A.scala")
        assert loc.__eq__((3, 7, "A.scala")) is NotImplemented
        assert hash(loc) == hash((3, 7, "A.scala"))
        assert SourceLocation(1, 2) == SourceLocation(1, 2, "Main.scala")
        assert str(loc) == "A.scala:3:7"
        assert repr(loc) == "SourceLocation(line=3, column=7, file='A.scala')"
        assert not hasattr(loc, "__dict__")

    def test_token_equality_hash_repr_and_helpers(self):
        loc = SourceLocation(1, 4)
        token = Token(TokenKind.IDENT, "a", loc)
        assert token == Token(TokenKind.IDENT, "a", SourceLocation(1, 4))
        assert token != Token(TokenKind.IDENT, "a", SourceLocation(2, 4))
        assert token != Token(TokenKind.KEYWORD, "a", loc)
        assert hash(token) == hash((TokenKind.IDENT, "a", loc))
        assert len({token, Token(TokenKind.IDENT, "a", loc)}) == 1
        assert repr(token) == "Token(ident, 'a', Main.scala:1:4)"
        assert token.is_ident() and token.is_ident("b", "a") and not token.is_ident("b")
        assert Token(TokenKind.OPERATOR, ":=", loc).is_op("=", ":=")
        assert Token(TokenKind.PUNCT, "(", loc).is_punct("(")
        assert Token(TokenKind.KEYWORD, "val", loc).is_keyword("val")
        assert not hasattr(token, "__dict__")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_round_trip(self, protocol):
        # Fleet workers pickle diagnostics (and so their locations) back to
        # the supervisor.
        tokens = tokenize(SIMPLE_MODULE, "Top.scala")
        assert pickle.loads(pickle.dumps(tokens, protocol)) == tokens
        diagnostic = Diagnostic("boom", location=SourceLocation(2, 3, "Top.scala"), code="A1")
        assert pickle.loads(pickle.dumps(diagnostic, protocol)) == diagnostic
        assert copy.deepcopy(tokens) == tokens


class TestParserStructure:
    def test_parses_class_and_imports(self):
        program = parse_source(SIMPLE_MODULE)
        assert len(program.imports) == 1
        assert len(program.classes) == 1
        assert program.classes[0].name == "TopModule"
        assert program.classes[0].is_module

    def test_module_classes_helper(self):
        program = parse_source(SIMPLE_MODULE)
        assert [c.name for c in program.module_classes()] == ["TopModule"]

    def test_class_parameters_with_defaults(self):
        source = "class Foo(val n: Int = 4) extends Module { }"
        program = parse_source(source)
        assert program.classes[0].params[0].name == "n"
        assert program.classes[0].params[0].type_annotation == "Int"

    def test_bundle_literal_members(self):
        program = parse_source(SIMPLE_MODULE)
        io_def = program.classes[0].body[0]
        assert isinstance(io_def, ast.ValDef)
        bundle = io_def.value
        assert isinstance(bundle, ast.MethodCall)  # IO(...)
        assert isinstance(bundle.args[0], ast.BundleLiteral)
        assert [m.name for m in bundle.args[0].members] == ["in", "out"]

    def test_connect_statement(self):
        program = parse_source(SIMPLE_MODULE)
        connect = program.classes[0].body[-1]
        assert isinstance(connect, ast.Connect)

    def test_unbalanced_brace_raises(self):
        with pytest.raises(ChiselError):
            parse_source("class TopModule extends Module {\n  val x = 1\n")

    def test_def_is_rejected_with_clear_message(self):
        source = "class TopModule extends Module { def helper(x: Int) = x }"
        with pytest.raises(ChiselError) as excinfo:
            parse_source(source)
        assert "def" in str(excinfo.value)


class TestParserStatements:
    def _body(self, body_source: str):
        program = parse_source(
            "class TopModule extends Module {\n" + body_source + "\n}"
        )
        return program.classes[0].body

    def test_when_elsewhen_otherwise(self):
        body = self._body(
            "when (a) { x := 1.U } .elsewhen (b) { x := 2.U } .otherwise { x := 3.U }"
        )
        when = body[0]
        assert isinstance(when, ast.WhenStmt)
        assert len(when.branches) == 3
        assert when.branches[2].condition is None

    def test_when_otherwise_on_next_line(self):
        body = self._body("when (a) {\n  x := 1.U\n}\n.otherwise {\n  x := 0.U\n}")
        assert isinstance(body[0], ast.WhenStmt)
        assert len(body[0].branches) == 2

    def test_switch_with_is_clauses(self):
        body = self._body('switch (sel) {\n  is (0.U) { x := a }\n  is (1.U) { x := b }\n}')
        switch = body[0]
        assert isinstance(switch, ast.SwitchStmt)
        assert [case.keyword for case in switch.cases] == ["is", "is"]

    def test_switch_accepts_unknown_clause_for_later_diagnosis(self):
        body = self._body("switch (sel) {\n  is (0.U) { x := a }\n  default { x := b }\n}")
        switch = body[0]
        assert switch.cases[1].keyword == "default"

    def test_for_loop_with_range(self):
        body = self._body("for (i <- 0 until 5) { x := i.U }")
        loop = body[0]
        assert isinstance(loop, ast.ForStmt)
        assert loop.variable == "i"
        assert isinstance(loop.iterable, ast.BinaryOp)
        assert loop.iterable.op == "until"

    def test_scala_if_else(self):
        body = self._body("if (n > 2) { val x = 1 } else { val x = 2 }")
        assert isinstance(body[0], ast.IfStmt)
        assert len(body[0].else_body) == 1

    def test_compound_assignment_desugars(self):
        body = self._body("var idx = 0\nidx += 1")
        assign = body[1]
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.value, ast.BinaryOp)
        assert assign.value.op == "+"

    def test_with_clock_statement(self):
        body = self._body("withClock (clk) { val r = RegNext(x) }")
        assert isinstance(body[0], ast.WithClockStmt)

    def test_with_clock_expression(self):
        body = self._body("val out = withClock(clk) { RegNext(x) }")
        val = body[0]
        assert isinstance(val, ast.ValDef)
        assert isinstance(val.value, ast.WithClockExpr)


class TestParserExpressions:
    def _expr(self, text: str) -> ast.Expr:
        program = parse_source(f"class TopModule extends Module {{ val x = {text} }}")
        val = program.classes[0].body[0]
        assert isinstance(val, ast.ValDef)
        return val.value

    def test_operator_precedence_add_before_compare(self):
        expr = self._expr("a + b === c")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "==="
        assert isinstance(expr.left, ast.BinaryOp)
        assert expr.left.op == "+"

    def test_logical_precedence(self):
        expr = self._expr("a && b || c")
        assert expr.op == "||"

    def test_unary_operators(self):
        expr = self._expr("~a & !b")
        assert expr.op == "&"
        assert isinstance(expr.left, ast.UnaryOp)
        assert isinstance(expr.right, ast.UnaryOp)

    def test_method_chain(self):
        expr = self._expr("io.in.asUInt")
        assert isinstance(expr, ast.FieldSelect)
        assert expr.name == "asUInt"

    def test_call_with_width(self):
        expr = self._expr("3.U(8.W)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "U"

    def test_underscore_lambda_becomes_lambda(self):
        expr = self._expr("xs.reduce(_ +& _)")
        assert isinstance(expr, ast.MethodCall)
        lamb = expr.args[0]
        assert isinstance(lamb, ast.Lambda)
        assert len(lamb.params) == 2

    def test_explicit_lambda(self):
        expr = self._expr("xs.map(x => x + 1)")
        lamb = expr.args[0]
        assert isinstance(lamb, ast.Lambda)
        assert lamb.params == ["x"]

    def test_curried_call(self):
        expr = self._expr("Seq.fill(5)(0.U)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "fill"
        assert len(expr.extra_arg_lists) == 1

    def test_type_argument_call(self):
        expr = self._expr("x.asInstanceOf[SInt]")
        assert isinstance(expr, ast.MethodCall)
        assert expr.type_args == ["SInt"]

    def test_if_expression(self):
        expr = self._expr("if (n > 2) 8 else 4")
        assert isinstance(expr, ast.IfExpr)

    def test_string_literal_uint(self):
        expr = self._expr('"b1010".U')
        assert isinstance(expr, ast.FieldSelect)
        assert isinstance(expr.target, ast.StringLit)

    def test_indexing_expression(self):
        expr = self._expr("data(3, 0)")
        assert isinstance(expr, ast.MethodCall) or isinstance(expr, ast.Apply)


# Binary operators by precedence level, loosest first (Scala's order, with
# the identifiers used infix at the bottom).
PRECEDENCE = [
    ["until", "to", "min", "max"],
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["===", "=/=", "==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["##"],
    ["+", "-", "+&", "-&", "+%", "-%"],
    ["*", "/", "%"],
]
LEVEL = {op: level for level, ops in enumerate(PRECEDENCE) for op in ops}
NAMED_INFIX = set(PRECEDENCE[0])


class TestBinaryPrecedence:
    def test_level_table(self):
        assert {text: level for (_, text), level in _BINARY_LEVELS.items()} == LEVEL
        for (kind, text), _ in _BINARY_LEVELS.items():
            assert kind is (TokenKind.IDENT if text in NAMED_INFIX else TokenKind.OPERATOR)

    @staticmethod
    def expected_tree(op1: str, op2: str) -> ast.Expr:
        """``a op1 b op2 c`` as the levels and left-associativity imply."""
        columns = itertools.accumulate([1, 2, len(op1) + 1, 2, len(op2) + 1])
        a, l1, b, l2, c = (SourceLocation(1, column) for column in columns)

        def node(op, location, left, right):
            at = left.location if op in NAMED_INFIX else location
            return ast.BinaryOp(at, op, left, right)

        a, b, c = ast.Ident(a, "a"), ast.Ident(b, "b"), ast.Ident(c, "c")
        if LEVEL[op1] >= LEVEL[op2]:
            return node(op2, l2, node(op1, l1, a, b), c)
        return node(op1, l1, a, node(op2, l2, b, c))

    @pytest.mark.parametrize("op1", list(LEVEL))
    def test_every_ordered_pair(self, op1):
        for op2 in LEVEL:
            parser = Parser(tokenize(f"a {op1} b {op2} c"))
            tree = parser.parse_expression()
            assert parser._peek().kind is TokenKind.EOF
            assert tree == self.expected_tree(op1, op2), (op1, op2)


MALFORMED_LITERAL_MODULE = """
class TopModule extends Module {
  val io = IO(new Bundle { val out = Output(UInt(8.W)) })
  io.out := %s
}
"""


class TestMalformedNumericLiterals:
    @pytest.mark.parametrize(
        "literal, code",
        [
            ("0x.U", "LEX"),
            ("0x_.U(8.W)", "LEX"),
            ("0X.U", "LEX"),
            ("².U", "LEX"),
            ("１.U", "LEX"),
            ("1" * 5000 + ".U", "PARSE"),
        ],
    )
    def test_compile_returns_a_diagnostic(self, literal, code):
        result = ChiselCompiler(cache_size=0).compile(MALFORMED_LITERAL_MODULE % literal)
        assert not result.success
        [diagnostic] = result.diagnostics
        assert diagnostic.code == code
        assert diagnostic.location == SourceLocation(4, 13)

    @pytest.mark.parametrize(
        "member, message",
        [
            (".U(8.W)", "literal 0xffffffff...ffffffff (20000 bits) does not fit in 8 bits"),
            (".B", "cannot convert 0xffffffff...ffffffff (20000 bits) to Bool with .B"),
        ],
    )
    def test_literal_past_the_int_digit_limit_is_an_a3_diagnostic(self, member, message):
        # 5000 hex digits is about 6000 decimal ones, past the 4300 that
        # int -> str converts: neither the elaborate-cache key nor the A3
        # message may go through the decimal form.
        literal = "0x" + "f" * 5000
        result = ChiselCompiler().compile(MALFORMED_LITERAL_MODULE % (literal + member))
        assert not result.success
        [diagnostic] = result.diagnostics
        assert diagnostic.code == "A3"
        assert diagnostic.message == message
        assert diagnostic.location == SourceLocation(4, 13 + len(literal) + 1)

    def test_hex_with_separator_still_parses(self):
        result = ChiselCompiler(cache_size=0).compile(MALFORMED_LITERAL_MODULE % "0x_f.U")
        assert result.success, result.diagnostics

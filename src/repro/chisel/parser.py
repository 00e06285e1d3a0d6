"""Recursive-descent parser for the Chisel/Scala subset.

The parser is intentionally lenient in places where LLM-generated code varies
(newlines before ``.elsewhen``, optional semicolons, either ``} .otherwise {``
or ``}.otherwise {``) but strict about structure so that malformed code
produces a compiler diagnostic rather than silently parsing — unparseable
output is one of the syntax-error classes the reflection loop must handle.
"""

from __future__ import annotations

from repro.caching import LruCache, get_or_compute, text_key
from repro.chisel import ast
from repro.chisel.diagnostics import ChiselError, SourceLocation
from repro.chisel.lexer import Token, TokenKind, tokenize

# Binary operators by precedence level, loosest first, all left-associative.
# Level 0 holds the identifiers used as infix operators (Scala method infix
# notation); their BinaryOp takes the left operand's location, every other
# level's the operator token's.
_NAMED_INFIX_LEVEL = 0
_PRECEDENCE: tuple[tuple[str, ...], ...] = (
    ("until", "to", "min", "max"),
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("===", "=/=", "==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("##",),
    ("+", "-", "+&", "-&", "+%", "-%"),
    ("*", "/", "%"),
)
_BINARY_LEVELS: dict[tuple[TokenKind, str], int] = {
    (TokenKind.IDENT if level == _NAMED_INFIX_LEVEL else TokenKind.OPERATOR, op): level
    for level, ops in enumerate(_PRECEDENCE)
    for op in ops
}

_UNARY_OPS = {"!", "~", "-"}


class Parser:
    """Parse a token stream into a :class:`repro.chisel.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._placeholder_counter = 0

    # ------------------------------------------------------------------ utils

    def _peek(self, offset: int = 0) -> Token:
        # ``_advance`` never moves ``pos`` past the final EOF token.
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _peek_skipping_newlines(self, offset: int = 0) -> Token:
        index = self.pos
        skipped = 0
        while index < len(self.tokens):
            token = self.tokens[index]
            if token.kind is TokenKind.NEWLINE:
                index += 1
                continue
            if skipped == offset:
                return token
            skipped += 1
            index += 1
        return self.tokens[-1]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return token

    def _skip_newlines(self) -> None:
        while self._peek().kind is TokenKind.NEWLINE or self._peek().is_punct(";"):
            self._advance()

    def _error(self, message: str, token: Token | None = None) -> ChiselError:
        token = token or self._peek()
        return ChiselError.at(message, token.location, code="PARSE")

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if not token.is_punct(punct):
            raise self._error(f"expected {punct!r} but found {token.text!r}")
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if not token.is_op(op):
            raise self._error(f"expected {op!r} but found {token.text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise self._error(f"expected identifier but found {token.text!r}")
        return self._advance()

    # ------------------------------------------------------------- top level

    def parse_program(self) -> ast.Program:
        imports: list[str] = []
        classes: list[ast.ClassDef] = []
        start = self._peek().location
        self._skip_newlines()
        while self._peek().kind is not TokenKind.EOF:
            token = self._peek()
            if token.is_keyword("import"):
                imports.append(self._parse_import())
            elif token.is_keyword("package"):
                self._skip_line()
            elif token.is_keyword("class"):
                classes.append(self._parse_class())
            elif token.is_keyword("object"):
                classes.append(self._parse_object())
            else:
                raise self._error(
                    f"expected class or import at top level but found {token.text!r}"
                )
            self._skip_newlines()
        return ast.Program(start, imports, classes)

    def _skip_line(self) -> None:
        while self._peek().kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            self._advance()

    def _parse_import(self) -> str:
        self._advance()  # import
        parts: list[str] = []
        while self._peek().kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            parts.append(self._advance().text)
        return "".join(parts)

    def _parse_class(self) -> ast.ClassDef:
        loc = self._advance().location  # class
        name = self._expect_ident().text
        params: list[ast.Param] = []
        if self._peek().is_punct("("):
            params = self._parse_param_list()
        parents: list[str] = []
        if self._peek().is_keyword("extends"):
            self._advance()
            parents.append(self._parse_type_name())
            while self._peek().is_keyword("with"):
                self._advance()
                parents.append(self._parse_type_name())
        body: list[ast.Stmt] = []
        self._skip_newlines()
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.ClassDef(loc, name, params, parents, body)

    def _parse_object(self) -> ast.ClassDef:
        loc = self._advance().location  # object
        name = self._expect_ident().text
        parents: list[str] = []
        if self._peek().is_keyword("extends"):
            self._advance()
            parents.append(self._parse_type_name())
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.ClassDef(loc, name, [], parents, body)

    def _parse_type_name(self) -> str:
        name = self._expect_ident().text
        # Constructor arguments on the parent (``extends Module``) and type
        # parameters are accepted and discarded.
        if self._peek().is_punct("("):
            depth = 0
            while True:
                token = self._advance()
                if token.is_punct("("):
                    depth += 1
                elif token.is_punct(")"):
                    depth -= 1
                    if depth == 0:
                        break
        return name

    def _parse_param_list(self) -> list[ast.Param]:
        self._expect_punct("(")
        params: list[ast.Param] = []
        self._skip_newlines()
        while not self._peek().is_punct(")"):
            while self._peek().is_keyword("val", "var", "implicit", "override"):
                self._advance()
            name = self._expect_ident().text
            type_annotation = None
            default = None
            if self._peek().is_punct(":"):
                self._advance()
                type_annotation = self._parse_type_annotation()
            if self._peek().is_op("="):
                self._advance()
                default = self.parse_expression()
            params.append(ast.Param(name, type_annotation, default))
            if self._peek().is_punct(","):
                self._advance()
                self._skip_newlines()
        self._expect_punct(")")
        return params

    def _parse_type_annotation(self) -> str:
        parts: list[str] = [self._expect_ident().text]
        if self._peek().is_punct("["):
            depth = 0
            while True:
                token = self._advance()
                parts.append(token.text)
                if token.is_punct("["):
                    depth += 1
                elif token.is_punct("]"):
                    depth -= 1
                    if depth == 0:
                        break
        return "".join(parts)

    # ------------------------------------------------------------ statements

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect_punct("{")
        stmts: list[ast.Stmt] = []
        self._skip_newlines()
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside block (missing '}')")
            stmts.append(self.parse_statement())
            self._skip_newlines()
        self._expect_punct("}")
        return stmts

    def parse_statement(self) -> ast.Stmt:
        self._skip_newlines()
        token = self._peek()
        if token.is_keyword("val", "var", "lazy"):
            return self._parse_val_def()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("if"):
            return self._parse_if_statement()
        if token.is_keyword("import"):
            self._parse_import()
            return ast.ExprStmt(token.location, ast.BoolLit(token.location, True))
        if token.is_keyword("def"):
            raise ChiselError.at(
                "method definitions (def) are not supported inside modules in this "
                "Chisel subset; inline the logic instead",
                token.location,
                code="PARSE",
            )
        if token.is_ident("when"):
            return self._parse_when()
        if token.is_ident("switch"):
            return self._parse_switch()
        if token.is_ident("withClock", "withReset", "withClockAndReset"):
            return self._parse_with_clock()
        return self._parse_expression_statement()

    def _parse_with_clock(self) -> ast.Stmt:
        token = self._advance()
        self._expect_punct("(")
        first = self.parse_expression()
        second = None
        if self._peek().is_punct(","):
            self._advance()
            second = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block_or_single()
        if token.text == "withClock":
            return ast.WithClockStmt(token.location, first, None, body)
        if token.text == "withReset":
            return ast.WithClockStmt(token.location, None, first, body)
        return ast.WithClockStmt(token.location, first, second, body)

    def _parse_val_def(self) -> ast.Stmt:
        first = self._advance()
        mutable = first.text == "var"
        if first.text == "lazy":
            self._advance()  # val
        name_token = self._expect_ident()
        type_annotation = None
        if self._peek().is_punct(":"):
            self._advance()
            type_annotation = self._parse_type_annotation()
        self._expect_op("=")
        value = self.parse_expression()
        return ast.ValDef(first.location, name_token.text, value, mutable, type_annotation)

    def _parse_for(self) -> ast.Stmt:
        loc = self._advance().location  # for
        self._expect_punct("(")
        variable = self._expect_ident().text
        self._expect_op("<-")
        iterable = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block_or_single()
        return ast.ForStmt(loc, variable, iterable, body)

    def _parse_if_statement(self) -> ast.Stmt:
        loc = self._advance().location  # if
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        then_body = self._parse_block_or_single()
        else_body: list[ast.Stmt] = []
        if self._peek_skipping_newlines().is_keyword("else"):
            self._skip_newlines()
            self._advance()
            self._skip_newlines()
            if self._peek().is_keyword("if"):
                else_body = [self._parse_if_statement()]
            else:
                else_body = self._parse_block_or_single()
        return ast.IfStmt(loc, condition, then_body, else_body)

    def _parse_block_or_single(self) -> list[ast.Stmt]:
        if self._peek().is_punct("{"):
            return self._parse_block()
        return [self.parse_statement()]

    def _parse_when(self) -> ast.Stmt:
        loc = self._peek().location
        branches: list[ast.WhenBranch] = []
        self._advance()  # when
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block()
        branches.append(ast.WhenBranch(condition, body))
        while True:
            next_token = self._peek_skipping_newlines()
            if not next_token.is_punct("."):
                break
            follow = self._peek_after_dot()
            if follow not in ("elsewhen", "otherwise"):
                break
            self._skip_newlines()
            self._advance()  # '.'
            keyword = self._advance().text
            if keyword == "elsewhen":
                self._expect_punct("(")
                cond = self.parse_expression()
                self._expect_punct(")")
                self._skip_newlines()
                branches.append(ast.WhenBranch(cond, self._parse_block()))
            else:  # otherwise
                if self._peek().is_punct("("):
                    # ``.otherwise() { ... }`` is not valid Chisel; surface it
                    # as a parse error the same way scalac would.
                    raise self._error(
                        "otherwise does not take arguments", self._peek()
                    )
                self._skip_newlines()
                branches.append(ast.WhenBranch(None, self._parse_block()))
                break
        return ast.WhenStmt(loc, branches)

    def _peek_after_dot(self) -> str:
        index = self.pos
        while index < len(self.tokens) and self.tokens[index].kind is TokenKind.NEWLINE:
            index += 1
        if index < len(self.tokens) and self.tokens[index].is_punct("."):
            index += 1
            if index < len(self.tokens):
                return self.tokens[index].text
        return ""

    def _parse_switch(self) -> ast.Stmt:
        loc = self._advance().location  # switch
        self._expect_punct("(")
        subject = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        if not self._peek().is_punct("{") and not self._peek().is_punct("("):
            raise self._error("expected '{' after switch(...)")
        open_punct = self._advance().text
        close_punct = "}" if open_punct == "{" else ")"
        cases: list[ast.SwitchCase] = []
        self._skip_newlines()
        while not self._peek().is_punct(close_punct):
            if self._peek().kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside switch block")
            cases.append(self._parse_switch_case())
            self._skip_newlines()
        self._advance()  # closing punct
        return ast.SwitchStmt(loc, subject, cases)

    def _parse_switch_case(self) -> ast.SwitchCase:
        token = self._peek()
        if token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD) and not token.is_op("_"):
            raise self._error(
                f"expected 'is(...)' clause inside switch but found {token.text!r}"
            )
        keyword = self._advance().text
        patterns: list[ast.Expr] = []
        if self._peek().is_punct("("):
            self._advance()
            while not self._peek().is_punct(")"):
                patterns.append(self.parse_expression())
                if self._peek().is_punct(","):
                    self._advance()
            self._expect_punct(")")
        self._skip_newlines()
        body: list[ast.Stmt] = []
        if self._peek().is_punct("{"):
            body = self._parse_block()
        return ast.SwitchCase(keyword, patterns, body, token.location)

    def _parse_expression_statement(self) -> ast.Stmt:
        loc = self._peek().location
        expr = self.parse_expression()
        token = self._peek()
        if token.is_op(":="):
            self._advance()
            value = self.parse_expression()
            return ast.Connect(loc, expr, value)
        if token.is_op("<>", "<->"):
            self._advance()
            value = self.parse_expression()
            return ast.BulkConnect(loc, expr, value)
        if token.is_op("="):
            self._advance()
            value = self.parse_expression()
            return ast.Assign(loc, expr, value)
        if token.is_op("+=", "-=", "*=", "/=", "&=", "|=", "^="):
            self._advance()
            value = self.parse_expression()
            combined = ast.BinaryOp(token.location, token.text[0], expr, value)
            return ast.Assign(loc, expr, combined)
        return ast.ExprStmt(loc, expr)

    # ----------------------------------------------------------- expressions

    def parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_LEVELS`, left-associative."""
        left = self._parse_unary()
        while True:
            token = self.tokens[self.pos]
            level = _BINARY_LEVELS.get((token.kind, token.text))
            if level is None or level < min_level:
                return left
            self._advance()
            right = self._parse_binary(level + 1)
            loc = left.location if level == _NAMED_INFIX_LEVEL else token.location
            left = ast.BinaryOp(loc, token.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op(*_UNARY_OPS):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(token.location, token.text, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("."):
                follow = self._peek(1)
                if follow.text in ("elsewhen", "otherwise"):
                    break
                self._advance()
                name_token = self._peek()
                if name_token.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise self._error("expected member name after '.'")
                self._advance()
                expr = self._finish_member(expr, name_token.text, name_token.location)
                continue
            if token.is_punct("("):
                args = self._parse_args()
                expr = ast.Apply(token.location, expr, args)
                continue
            # Method-chain continuation across a line break: only when the
            # next non-newline token is '.' followed by a member name.
            if token.kind is TokenKind.NEWLINE and self._peek_after_dot() not in (
                "",
                "elsewhen",
                "otherwise",
            ):
                next_real = self._peek_skipping_newlines()
                if next_real.is_punct("."):
                    self._skip_newlines()
                    continue
            break
        return expr

    def _finish_member(self, target: ast.Expr, name: str, loc: SourceLocation) -> ast.Expr:
        type_args: list[str] = []
        if self._peek().is_punct("["):
            self._advance()
            while not self._peek().is_punct("]"):
                type_args.append(self._advance().text)
            self._expect_punct("]")
        if self._peek().is_punct("("):
            args = self._parse_args()
            call = ast.MethodCall(loc, target, name, args, type_args)
            while self._peek().is_punct("("):
                call.extra_arg_lists.append(self._parse_args())
            return call
        if type_args:
            return ast.MethodCall(loc, target, name, [], type_args)
        return ast.FieldSelect(loc, target, name)

    def _parse_args(self) -> list[ast.Expr]:
        self._expect_punct("(")
        args: list[ast.Expr] = []
        self._skip_newlines()
        while not self._peek().is_punct(")"):
            args.append(self._parse_argument())
            self._skip_newlines()
            if self._peek().is_punct(","):
                self._advance()
                self._skip_newlines()
        self._expect_punct(")")
        return args

    def _parse_argument(self) -> ast.Expr:
        # Detect explicit lambdas: ``x => expr`` or ``(a, b) => expr``.
        lambda_expr = self._try_parse_lambda()
        if lambda_expr is not None:
            return lambda_expr
        expr = self.parse_expression()
        # Named arguments (``init = 0.U``) are accepted; the name is dropped.
        if isinstance(expr, ast.Ident) and self._peek().is_op("="):
            self._advance()
            return self.parse_expression()
        placeholders = _count_placeholders(expr)
        if placeholders:
            params = [f"_arg{i}" for i in range(placeholders)]
            body = _replace_placeholders(expr, iter(params))
            return ast.Lambda(expr.location, params, body)
        return expr

    def _try_parse_lambda(self) -> ast.Lambda | None:
        start = self.pos
        token = self._peek()
        params: list[str] = []
        if token.kind is TokenKind.IDENT and self._peek(1).is_op("=>"):
            params = [token.text]
            self._advance()
            self._advance()
        elif token.is_punct("("):
            index = self.pos + 1
            names: list[str] = []
            ok = True
            while index < len(self.tokens):
                tok = self.tokens[index]
                if tok.kind is TokenKind.IDENT:
                    names.append(tok.text)
                    index += 1
                    if self.tokens[index].is_punct(","):
                        index += 1
                        continue
                    if self.tokens[index].is_punct(")"):
                        index += 1
                        break
                ok = False
                break
            if ok and names and index < len(self.tokens) and self.tokens[index].is_op("=>"):
                params = names
                self.pos = index + 1
        if not params:
            self.pos = start
            return None
        body = self.parse_expression()
        return ast.Lambda(token.location, params, body)

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INTEGER:
            self._advance()
            text = token.text.replace("_", "")
            try:
                value = int(text, 16) if text.lower().startswith("0x") else int(text)
            except ValueError:  # more digits than int() converts
                raise self._error(
                    f"integer literal {token.text[:20]!r}... is too long", token
                ) from None
            return ast.IntLit(token.location, value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLit(token.location, token.text)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLit(token.location, True)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLit(token.location, False)
        if token.is_keyword("new"):
            return self._parse_new()
        if token.is_keyword("if"):
            return self._parse_if_expression()
        if token.is_op("_"):
            self._advance()
            return ast.Placeholder(token.location)
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("{"):
            # Block expression: evaluate statements, value of the last one.
            raise self._error(
                "block expressions are not supported in this Chisel subset"
            )
        if token.is_ident("withClock", "withReset", "withClockAndReset"):
            return self._parse_with_clock_expr()
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._peek().is_punct("(") and token.text[0].isupper():
                # Constructor-style call (UInt(8.W), Wire(...), VecInit(...)).
                args = self._parse_args()
                call = ast.MethodCall(token.location, None, token.text, args)
                while self._peek().is_punct("("):
                    call.extra_arg_lists.append(self._parse_args())
                return call
            if self._peek().is_punct("("):
                args = self._parse_args()
                call = ast.MethodCall(token.location, None, token.text, args)
                while self._peek().is_punct("("):
                    call.extra_arg_lists.append(self._parse_args())
                return call
            return ast.Ident(token.location, token.text)
        raise self._error(f"unexpected token {token.text!r} in expression", token)

    def _parse_with_clock_expr(self) -> ast.Expr:
        token = self._advance()
        self._expect_punct("(")
        first = self.parse_expression()
        second = None
        if self._peek().is_punct(","):
            self._advance()
            second = self.parse_expression()
        self._expect_punct(")")
        self._skip_newlines()
        body = self._parse_block()
        if token.text == "withClock":
            return ast.WithClockExpr(token.location, first, None, body)
        if token.text == "withReset":
            return ast.WithClockExpr(token.location, None, first, body)
        return ast.WithClockExpr(token.location, first, second, body)

    def _parse_new(self) -> ast.Expr:
        loc = self._advance().location  # new
        name = self._expect_ident().text
        if name == "Bundle":
            self._skip_newlines()
            members = self._parse_bundle_body()
            return ast.BundleLiteral(loc, members)
        args: list[ast.Expr] = []
        if self._peek().is_punct("("):
            args = self._parse_args()
        return ast.NewInstance(loc, name, args)

    def _parse_bundle_body(self) -> list[ast.ValDef]:
        self._expect_punct("{")
        members: list[ast.ValDef] = []
        self._skip_newlines()
        while not self._peek().is_punct("}"):
            stmt = self.parse_statement()
            if not isinstance(stmt, ast.ValDef):
                raise ChiselError.at(
                    "only val definitions are allowed inside a Bundle literal",
                    stmt.location,
                    code="PARSE",
                )
            members.append(stmt)
            self._skip_newlines()
        self._expect_punct("}")
        return members

    def _parse_if_expression(self) -> ast.Expr:
        loc = self._advance().location  # if
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_value = self.parse_expression()
        else_value = None
        if self._peek_skipping_newlines().is_keyword("else"):
            self._skip_newlines()
            self._advance()
            else_value = self.parse_expression()
        return ast.IfExpr(loc, condition, then_value, else_value)


# ---------------------------------------------------------------------------
# Placeholder (underscore lambda) rewriting helpers
# ---------------------------------------------------------------------------


def _count_placeholders(expr: ast.Expr) -> int:
    count = 0
    for child in _walk(expr):
        if isinstance(child, ast.Placeholder):
            count += 1
    return count


def _walk(expr: ast.Expr):
    yield expr
    if isinstance(expr, ast.BinaryOp):
        yield from _walk(expr.left)
        yield from _walk(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        yield from _walk(expr.operand)
    elif isinstance(expr, ast.FieldSelect):
        yield from _walk(expr.target)
    elif isinstance(expr, ast.MethodCall):
        if expr.target is not None:
            yield from _walk(expr.target)
        for arg in expr.args:
            yield from _walk(arg)
    elif isinstance(expr, ast.Apply):
        yield from _walk(expr.target)
        for arg in expr.args:
            yield from _walk(arg)


def _replace_placeholders(expr: ast.Expr, names) -> ast.Expr:
    if isinstance(expr, ast.Placeholder):
        return ast.Ident(expr.location, next(names))
    if isinstance(expr, ast.BinaryOp):
        left = _replace_placeholders(expr.left, names)
        right = _replace_placeholders(expr.right, names)
        return ast.BinaryOp(expr.location, expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.location, expr.op, _replace_placeholders(expr.operand, names))
    if isinstance(expr, ast.FieldSelect):
        return ast.FieldSelect(expr.location, _replace_placeholders(expr.target, names), expr.name)
    if isinstance(expr, ast.MethodCall):
        target = None
        if expr.target is not None:
            target = _replace_placeholders(expr.target, names)
        args = [_replace_placeholders(a, names) for a in expr.args]
        call = ast.MethodCall(expr.location, target, expr.name, args, list(expr.type_args))
        call.extra_arg_lists = [
            [_replace_placeholders(a, names) for a in arg_list]
            for arg_list in expr.extra_arg_lists
        ]
        return call
    if isinstance(expr, ast.Apply):
        target = _replace_placeholders(expr.target, names)
        args = [_replace_placeholders(a, names) for a in expr.args]
        return ast.Apply(expr.location, target, args)
    return expr


def parse_source(source: str, file: str = "Main.scala") -> ast.Program:
    """Tokenise and parse Chisel source text into a :class:`Program`."""
    tokens = tokenize(source, file)
    return Parser(tokens).parse_program()


# ---------------------------------------------------------------------------
# Parse cache (stage 1 of the incremental compile pipeline)
# ---------------------------------------------------------------------------

_parse_cache: LruCache[object] = LruCache(256, name="chisel_parse")


def parse_source_cached(source: str, file: str = "Main.scala") -> ast.Program:
    """:func:`parse_source` memoized by exact source text.

    Parse failures are cached too and re-raised on hit.  The returned
    :class:`Program` is shared between callers: treat it as immutable.
    ``RecursionError`` is never cached — it depends on the caller's stack.
    """
    return get_or_compute(
        _parse_cache,
        text_key(file, source),
        lambda: parse_source(source, file),
        cache_exceptions=(ChiselError,),
    )


def clear_parse_cache() -> None:
    _parse_cache.clear()

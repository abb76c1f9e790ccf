"""Recursive-descent parser for the mini-language.

Grammar (lowered later by :mod:`repro.lang.transform`)::

    file      := module? import* function*
    module    := "module" IDENT ";"
    import    := "import" IDENT ("." IDENT)? ";"
    program   := function*
    function  := "func" IDENT "(" params? ")" block
    block     := "{" stmt* "}"
    stmt      := "var" IDENT ("=" expr)? ";"
               | IDENT "=" expr ";"
               | IDENT "." IDENT "=" IDENT ";"         -- field store
               | IDENT "." IDENT "(" args? ")" ";"     -- event (method call)
               | IDENT "(" args? ")" ";"               -- call statement
               | "if" "(" expr ")" block ("else" (block | if-stmt))?
               | "while" "(" expr ")" block
               | "return" expr? ";"
               | "throw" IDENT ";"
               | "try" block "catch" "(" IDENT ")" block
    expr      := disjunction of comparisons over arithmetic; atoms are
                 INT, "true", "false", "null", IDENT, IDENT "." IDENT,
                 "new" IDENT "(" ")", IDENT "(" args ")", "input" "(" ")"

Qualified names: ``alias.sym(...)`` where ``alias`` names an imported
module parses as a *qualified call* ``Call("alias.sym", ...)`` -- in
both statement and expression position -- instead of an FSM event or a
field load.  The disambiguation is purely syntactic (the alias set of
the file's ``import`` headers); actual name binding is the name
resolver's job (:mod:`repro.sa.scopes`).  Files without a ``module``
header live in the root namespace with unqualified symbols, which keeps
single-file programs byte-identical under resolution.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.lexer import ParseError, Token, tokenize


class _Parser:
    def __init__(self, tokens: list[Token], site_base: int = 0):
        self.tokens = tokens
        self.pos = 0
        self.next_site = site_base  # allocation-site / input-site counter
        #: Module names imported by the current file; ``alias.sym(...)``
        #: with ``alias`` in this set parses as a qualified call.
        self.module_aliases: set[str] = set()

    # -- token helpers ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.current
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text or kind
            raise ParseError(
                f"line {tok.line}: expected {wanted!r}, found {tok.text!r}"
            )
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def fresh_site(self) -> int:
        site = self.next_site
        self.next_site += 1
        return site

    # -- declarations ------------------------------------------------------

    def parse_module_file(self, path: str = "") -> ast.ModuleFile:
        """Parse one file: optional module header, imports, functions."""
        module = ""
        if self.current.kind == "keyword" and self.current.text == "module":
            self.advance()
            module = self.expect("ident").text
            self.expect(";")
        imports: list[ast.ImportDecl] = []
        while self.current.kind == "keyword" and self.current.text == "import":
            line = self.advance().line
            target = self.expect("ident").text
            symbol = None
            if self.accept("."):
                symbol = self.expect("ident").text
            self.expect(";")
            imports.append(ast.ImportDecl(target, symbol, line))
            self.module_aliases.add(target)
        out = ast.ModuleFile(module=module, path=path, imports=imports)
        while self.current.kind != "eof":
            fn = self.parse_function()
            if fn.name in out.functions:
                raise ParseError(f"line {fn.line}: duplicate function {fn.name!r}")
            out.functions[fn.name] = fn
        out.next_site = self.next_site
        return out

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self.current.kind != "eof":
            fn = self.parse_function()
            if fn.name in program.functions:
                raise ParseError(f"line {fn.line}: duplicate function {fn.name!r}")
            program.functions[fn.name] = fn
        return program

    def parse_function(self) -> ast.Function:
        start = self.expect("keyword", "func")
        name = self.expect("ident").text
        self.expect("(")
        params: list[str] = []
        if not self.accept(")"):
            params.append(self.expect("ident").text)
            while self.accept(","):
                params.append(self.expect("ident").text)
            self.expect(")")
        body = self.parse_block()
        return ast.Function(name, params, body, line=start.line)

    def parse_block(self) -> list:
        self.expect("{")
        body: list = []
        while not self.accept("}"):
            body.append(self.parse_statement())
        return body

    # -- statements --------------------------------------------------------

    def parse_statement(self):
        tok = self.current
        if tok.kind == "keyword":
            handler = {
                "var": self._parse_var,
                "if": self._parse_if,
                "while": self._parse_while,
                "return": self._parse_return,
                "throw": self._parse_throw,
                "try": self._parse_try,
            }.get(tok.text)
            if handler is None:
                raise ParseError(
                    f"line {tok.line}: unexpected keyword {tok.text!r}"
                )
            return handler()
        if tok.kind == "ident":
            return self._parse_ident_statement()
        raise ParseError(f"line {tok.line}: unexpected token {tok.text!r}")

    def _parse_var(self):
        line = self.advance().line  # "var"
        name = self.expect("ident").text
        value: object = ast.NullLit()
        if self.accept("="):
            value = self.parse_expression()
        self.expect(";")
        return ast.Assign(name, value, line=line, decl=True)

    def _parse_ident_statement(self):
        name_tok = self.advance()
        name, line = name_tok.text, name_tok.line
        if self.accept("."):
            member = self.expect("ident").text
            if self.accept("("):
                args = self._parse_args()
                self.expect(";")
                if name in self.module_aliases:
                    return ast.ExprStmt(
                        ast.Call(f"{name}.{member}", args, self.fresh_site()),
                        line=line,
                    )
                return ast.Event(name, member, args, line=line)
            self.expect("=")
            value = self.expect("ident").text
            self.expect(";")
            return ast.FieldStore(name, member, value, line=line)
        if self.accept("("):
            args = self._parse_args()
            self.expect(";")
            return ast.ExprStmt(
                ast.Call(name, args, self.fresh_site()), line=line
            )
        self.expect("=")
        value = self.parse_expression()
        self.expect(";")
        return ast.Assign(name, value, line=line)

    def _parse_args(self) -> tuple:
        args: list = []
        if self.accept(")"):
            return tuple(args)
        args.append(self.parse_expression())
        while self.accept(","):
            args.append(self.parse_expression())
        self.expect(")")
        return tuple(args)

    def _parse_if(self):
        line = self.advance().line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_body = self.parse_block()
        else_body: list = []
        if self.accept("keyword", "else"):
            if self.current.kind == "keyword" and self.current.text == "if":
                else_body = [self._parse_if()]
            else:
                else_body = self.parse_block()
        return ast.If(cond, then_body, else_body, line=line)

    def _parse_while(self):
        line = self.advance().line
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_block()
        return ast.While(cond, body, line=line)

    def _parse_return(self):
        line = self.advance().line
        value = None
        if not self.accept(";"):
            value = self.parse_expression()
            self.expect(";")
        return ast.Return(value, line=line)

    def _parse_throw(self):
        line = self.advance().line
        var = self.expect("ident").text
        self.expect(";")
        return ast.Throw(var, line=line)

    def _parse_try(self):
        line = self.advance().line
        try_body = self.parse_block()
        self.expect("keyword", "catch")
        self.expect("(")
        catch_var = self.expect("ident").text
        self.expect(")")
        catch_body = self.parse_block()
        return ast.TryCatch(try_body, catch_var, catch_body, line=line)

    # -- expressions -------------------------------------------------------
    # precedence: || < && < comparison < additive < multiplicative < unary

    def parse_expression(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self.accept("||"):
            left = ast.Binary("||", left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_comparison()
        while self.accept("&&"):
            left = ast.Binary("&&", left, self._parse_comparison())
        return left

    def _parse_comparison(self):
        left = self._parse_additive()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.accept(op):
                return ast.Binary(op, left, self._parse_additive())
        return left

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while True:
            if self.accept("+"):
                left = ast.Binary("+", left, self._parse_multiplicative())
            elif self.accept("-"):
                left = ast.Binary("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while self.accept("*"):
            left = ast.Binary("*", left, self._parse_unary())
        return left

    def _parse_unary(self):
        if self.accept("-"):
            return ast.Unary("-", self._parse_unary())
        if self.accept("!"):
            return ast.Unary("!", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(int(tok.text))
        if tok.kind == "keyword":
            if tok.text == "true":
                self.advance()
                return ast.BoolLit(True)
            if tok.text == "false":
                self.advance()
                return ast.BoolLit(False)
            if tok.text == "null":
                self.advance()
                return ast.NullLit()
            if tok.text == "new":
                self.advance()
                type_name = self.expect("ident").text
                self.expect("(")
                self._parse_args()  # constructor args are ignored semantically
                return ast.New(type_name, self.fresh_site())
            if tok.text == "input":
                self.advance()
                self.expect("(")
                self.expect(")")
                return ast.Input(self.fresh_site())
            raise ParseError(f"line {tok.line}: unexpected {tok.text!r}")
        if tok.kind == "ident":
            self.advance()
            if self.accept("("):
                return ast.Call(tok.text, self._parse_args(), self.fresh_site())
            if self.current.kind == "." and self.tokens[self.pos + 1].kind == "ident":
                if (
                    tok.text in self.module_aliases
                    and self.tokens[self.pos + 2].kind == "("
                ):
                    # qualified call: alias.sym(args)
                    self.advance()
                    member = self.expect("ident").text
                    self.expect("(")
                    return ast.Call(
                        f"{tok.text}.{member}",
                        self._parse_args(),
                        self.fresh_site(),
                    )
                # field load: base.field (only in expression position)
                self.advance()
                fieldname = self.expect("ident").text
                return ast.FieldLoad(tok.text, fieldname)
            return ast.VarRef(tok.text)
        if self.accept("("):
            inner = self.parse_expression()
            self.expect(")")
            return inner
        raise ParseError(f"line {tok.line}: unexpected token {tok.text!r}")


def parse_program(source: str) -> ast.Program:
    """Parse source text into a :class:`repro.lang.ast.Program`."""
    return _Parser(tokenize(source)).parse_program()


def parse_module(
    source: str,
    path: str = "",
    site_base: int = 0,
    tokens: list[Token] | None = None,
) -> ast.ModuleFile:
    """Parse one file of a (possibly multi-file) program.

    ``site_base`` offsets the allocation/call/input site counter so the
    multi-file loader can keep site ids unique program-wide; ``tokens``
    reuses an existing token stream (the loader tokenizes once to read
    the module header before parsing in canonical order).
    """
    if tokens is None:
        tokens = tokenize(source)
    return _Parser(tokens, site_base=site_base).parse_module_file(path)


def scan_module_name(tokens: list[Token]) -> str:
    """The declared module name of a token stream ("" when header-less)."""
    if (
        len(tokens) >= 2
        and tokens[0].kind == "keyword"
        and tokens[0].text == "module"
        and tokens[1].kind == "ident"
    ):
        return tokens[1].text
    return ""

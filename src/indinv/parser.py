"""Tokenizer and recursive-descent parser for protocol and grammar files.

Parsing is total: malformed input raises ParseError (with line/column) or
TypeCheckError, never anything else. ``parse_protocol`` and ``parse_grammar``
return fully type-checked results.
"""
from __future__ import annotations


from .errors import ParseError
from .syntax import (
    ActionDecl,
    BoolLit,
    BoolType,
    Card,
    EnumType,
    Expr,
    GrammarConfig,
    Ident,
    Implies,
    InitDecl,
    InSet,
    MapIndex,
    MapLit,
    MapType,
    Maj,
    Ne,
    Not,
    Or,
    And,
    Eq,
    Protocol,
    Quant,
    Record,
    SetLit,
    SetOp,
    SetType,
    SortDecl,
    Update,
    ValueType,
    VarDecl,
    ElemType,
)

_TWO_CHAR_SYMBOLS = (":=", "!=", "->", "/\\", "\\/")
_ONE_CHAR_SYMBOLS = set(":,(){}[].;=~+-&|<>")


class Token(Record):
    kind: str  # 'ident', 'int', 'sym', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_SYMBOLS:
            toks.append(Token("sym", two, line, col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR_SYMBOLS:
            toks.append(Token("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            self.fail(f"expected {text!r}, found {self._describe(t)}")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}, found {self._describe(t)}")
        return self.advance()

    def expect_int(self, what: str) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail(f"expected {what}, found {self._describe(t)}")
        self.advance()
        return int(t.text)

    @staticmethod
    def _describe(t: Token) -> str:
        return "end of input" if t.kind == "eof" else repr(t.text)

    def fail(self, message: str) -> None:
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def binder(self, what: str) -> tuple[str, str]:
        """``<var> : <sort> .``, the variable named ``what`` in errors."""
        var = self.expect_ident(what).text
        self.expect(":")
        sort = self.expect_ident("sort name").text
        self.expect(".")
        return var, sort

    # -- expressions --------------------------------------------------------

    def expr(self) -> Expr:
        if self.at("forall") or self.at("exists"):
            kind = self.advance().text
            return Quant(kind, *self.binder("quantified variable"), self.expr())
        return self._implies()

    def _implies(self) -> Expr:
        lhs = self._or()
        if self.accept("->"):
            return Implies(lhs, self.expr())
        return lhs

    def _or(self) -> Expr:
        parts = [self._and()]
        while self.accept("\\/"):
            parts.append(self._and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def _and(self) -> Expr:
        parts = [self._cmp()]
        while self.accept("/\\"):
            parts.append(self._cmp())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def _cmp(self) -> Expr:
        lhs = self._set_add()
        if self.accept("="):
            return Eq(lhs, self._set_add())
        if self.accept("!="):
            return Ne(lhs, self._set_add())
        if self.accept("in"):
            return InSet(lhs, self._set_add())
        return lhs

    def _set_add(self) -> Expr:
        e = self._set_isect()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            e = SetOp(op, e, self._set_isect())
        return e

    def _set_isect(self) -> Expr:
        e = self._unary()
        while self.accept("&"):
            e = SetOp("&", e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.accept("~"):
            return Not(self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        e = self._primary()
        while self.accept("["):
            key = self.expr()
            self.expect("]")
            e = MapIndex(e, key)
        return e

    def _primary(self) -> Expr:
        t = self.peek()
        if t.text == "true":
            self.advance()
            return BoolLit(True)
        if t.text == "false":
            self.advance()
            return BoolLit(False)
        if t.text == "maj":
            self.advance()
            self.expect("(")
            arg = self.expr()
            self.expect(",")
            sort = self.expect_ident("sort name").text
            self.expect(")")
            return Maj(arg, sort)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("{"):
            members: list[Expr] = []
            if not self.at("}"):
                members.append(self.expr())
                while self.accept(","):
                    members.append(self.expr())
            self.expect("}")
            return SetLit(tuple(members))
        if self.accept("|"):
            arg = self.expr()
            self.expect("|")
            return Card(arg)
        if self.accept("["):
            self.expect("forall")
            var, sort = self.binder("map index variable")
            body = self.expr()
            self.expect("]")
            return MapLit(var, sort, body)
        if t.kind == "ident":
            self.advance()
            return Ident(t.text)
        self.fail(f"expected an expression, found {self._describe(t)}")
        raise AssertionError  # unreachable

    # -- types ---------------------------------------------------------------

    def value_type(self) -> ValueType:
        t = self.peek()
        if self.accept("bool"):
            return BoolType()
        if self.accept("enum"):
            self.expect("{")
            labels = [self.expect_ident("enum label").text]
            while self.accept(","):
                labels.append(self.expect_ident("enum label").text)
            self.expect("}")
            return EnumType(tuple(labels))
        if self.accept("set"):
            self.expect("<")
            sort = self.expect_ident("sort name").text
            self.expect(">")
            return SetType(sort)
        if self.accept("map"):
            self.expect("<")
            sort = self.expect_ident("sort name").text
            self.expect(">")
            self.expect("->")
            return MapType(sort, self.value_type())
        if t.kind == "ident":
            self.advance()
            return ElemType(t.text)
        self.fail(f"expected a type, found {self._describe(t)}")
        raise AssertionError  # unreachable

    # -- declarations ---------------------------------------------------------

    def protocol(self) -> Protocol:
        sorts: list[SortDecl] = []
        vars_: list[VarDecl] = []
        inits: list[InitDecl] = []
        actions: list[ActionDecl] = []
        safety: tuple[str, Expr] | None = None

        if self.peek().kind == "eof":
            self.fail("expected 'sort' or 'var'")
        while self.peek().kind != "eof":
            t = self.peek()
            if self.accept("sort"):
                sorts.append(SortDecl(self.expect_ident("sort name").text))
            elif self.accept("var"):
                name = self.expect_ident("variable name").text
                self.expect(":")
                vars_.append(VarDecl(name, self.value_type()))
            elif self.accept("init"):
                name = self.expect_ident("variable name").text
                self.expect("=")
                inits.append(InitDecl(name, self.expr()))
            elif self.accept("action"):
                actions.append(self._action())
            elif self.accept("safety"):
                if safety is not None:
                    raise ParseError("a protocol has exactly one safety predicate", t.line, t.col)
                name = self.expect_ident("safety predicate name").text
                self.expect(":")
                safety = (name, self.expr())
            else:
                self.fail(
                    "expected a declaration keyword "
                    "('sort', 'var', 'init', 'action', 'safety'), found "
                    + self._describe(t)
                )
        if safety is None:
            raise ParseError("missing safety declaration", self.peek().line, self.peek().col)
        return Protocol(
            sorts=tuple(sorts),
            vars=tuple(vars_),
            inits=tuple(inits),
            actions=tuple(actions),
            safety_name=safety[0],
            safety=safety[1],
        )

    def _action(self) -> ActionDecl:
        name = self.expect_ident("action name").text
        self.expect("(")
        params: list[tuple[str, str]] = []
        if not self.at(")"):
            while True:
                pname = self.expect_ident("parameter name").text
                self.expect(":")
                psort = self.expect_ident("sort name").text
                params.append((pname, psort))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect("{")
        guards: list[Expr] = []
        updates: list[Update] = []
        while not self.at("}"):
            if self.accept("require"):
                guards.append(self.expr())
                self.expect(";")
                continue
            target = self.expect_ident("update target").text
            index: Expr | None = None
            if self.accept("["):
                index = self.expr()
                self.expect("]")
            self.expect(":=")
            rhs = self.expr()
            self.expect(";")
            updates.append(Update(target, index, rhs))
        self.expect("}")
        if not guards:
            guard: Expr = BoolLit(True)
        elif len(guards) == 1:
            guard = guards[0]
        else:
            guard = And(tuple(guards))
        return ActionDecl(name, tuple(params), guard, tuple(updates))

    def grammar(self) -> tuple[tuple[tuple[str, str, str], ...], list[Expr], tuple[int, ...]]:
        self.expect("template")
        template: list[tuple[str, str, str]] = []
        while self.at("forall") or self.at("exists"):
            kind = self.advance().text
            template.append((kind, *self.binder("template variable")))
        seeds: list[Expr] = []
        while self.accept("seed"):
            seeds.append(self.expr())
        self.expect("max_terms")
        schedule = [self.expect_int("term count")]
        while self.accept(","):
            schedule.append(self.expect_int("term count"))
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self._describe(self.peek())}")
        return tuple(template), seeds, tuple(schedule)


# ---------------------------------------------------------------------------
# Public entry points


def parse_protocol(text: str) -> Protocol:
    """Parse and type-check a protocol file; raises ParseError/TypeCheckError."""
    from .typecheck import check_protocol

    return check_protocol(_Parser(tokenize(text)).protocol())


def parse_grammar(text: str, protocol: Protocol) -> GrammarConfig:
    """Parse and type-check a grammar file against a checked protocol."""
    from .typecheck import check_grammar

    template, seeds, schedule = _Parser(tokenize(text)).grammar()
    return check_grammar(GrammarConfig(template, tuple(seeds), schedule), protocol)


def parse_expression(
    text: str, protocol: Protocol, bound: dict[str, str] | None = None
) -> Expr:
    """Parse one expression and type-check it to bool against the protocol."""
    from .typecheck import check_bool_expr

    p = _Parser(tokenize(text))
    e = p.expr()
    if p.peek().kind != "eof":
        p.fail(f"unexpected trailing input {p._describe(p.peek())}")
    return check_bool_expr(e, protocol, bound or {})


def parse_conjuncts(text: str, protocol: Protocol) -> list[Expr]:
    """Parse an invariant file: one closed boolean conjunct per line."""
    conjuncts = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            conjuncts.append(parse_expression(stripped, protocol))
        except ParseError as err:
            raise ParseError(err.message, lineno, err.col) from None
    return conjuncts

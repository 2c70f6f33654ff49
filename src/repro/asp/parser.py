"""Tokenizer and parser for the ASP-like input language.

The accepted language is the fragment of the clingo input language used by
the synthesis encodings:

.. code-block:: text

    #const n = 4.
    task(t1). task(t2).
    1 { bind(T, R) : mapping(T, R) } 1 :- task(T).
    reached(M, R) :- route(M, L), link(L, _, R).
    :- message(M), target(M, R), not reached(M, R).
    &diff { start(T2) - start(T1) } >= D :- depend(T1, T2), wcet(T1, D).
    &sum { E, bind(T, R) : energy(T, R, E) } <= budget.

Supported constructs: normal rules, facts, integrity constraints, choice
heads with optional bounds, ``#count``/``#sum`` body aggregates with
guards, comparison builtins, arithmetic terms, intervals ``lo..hi``,
``#const`` definitions, and theory atoms (``&name { ... } op term``) in
rule heads.  ``%`` starts a line comment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.asp import ast
from repro.asp.syntax import Number, String, Symbol

__all__ = ["ParseError", "parse_program", "parse_ground_term", "tokenize"]


class ParseError(Exception):
    """Raised on malformed input, with line/column information.

    Every instance carries ``line``, ``column`` (1-based) and ``token`` —
    the offending source text (``""`` at end of input) — so callers such
    as the linter can turn parse failures into located diagnostics.
    ``part`` is the index of the :class:`repro.asp.control.Control`
    part the location is relative to (None outside ``Control``).
    """

    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        self.part: Optional[int] = None


#: A constant or predicate name: the ``IDENT`` token.
IDENT = re.compile(r"[a-z][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<NUMBER>\d+)
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<DIRECTIVE>\#[a-z]+)
    | (?P<VARIABLE>[_A-Z][A-Za-z0-9_]*)
    | (?P<IDENT>"""
    + IDENT.pattern
    + r""")
    | (?P<DOTS>\.\.)
    | (?P<IMPLIES>:-)
    | (?P<WEAK>:~)
    | (?P<NEQ>!=)
    | (?P<LE><=)
    | (?P<GE>>=)
    | (?P<POW>\*\*)
    | (?P<PUNCT>[.,;:(){}\[\]&|+\-*/\\=<>@])
    """,
    re.VERBOSE,
)


class Token:
    """A lexical token with source position."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: str, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on garbage."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                line,
                pos - line_start + 1,
                token=text[pos],
            )
        kind = match.lastgroup
        value = match.group()
        column = pos - line_start + 1
        if kind not in ("WS", "COMMENT"):
            if kind == "PUNCT":
                kind = value
            elif kind == "DOTS":
                kind = ".."
            elif kind == "IMPLIES":
                kind = ":-"
            elif kind == "WEAK":
                kind = ":~"
            elif kind == "NEQ":
                kind = "!="
            elif kind == "LE":
                kind = "<="
            elif kind == "GE":
                kind = ">="
            elif kind == "POW":
                kind = "**"
            tokens.append(Token(kind, value, line, column))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


_COMPARISON_TOKENS = ("=", "!=", "<", "<=", ">", ">=")
_INVERT_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class _Parser:
    """Recursive-descent parser over a token stream."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        self._anonymous_counter = 0

    # -- token-stream helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, got {token.value!r}",
                token.line,
                token.column,
                token=token.value,
            )
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(
            message + f", got {token.value!r}",
            token.line,
            token.column,
            token=token.value,
        )

    @staticmethod
    def _loc(token: Token) -> ast.Location:
        return ast.Location(token.line, token.column)

    # -- program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._peek().kind != "EOF":
            token = self._peek()
            if token.kind == "DIRECTIVE":
                self._parse_directive(program)
            elif token.kind == ":~":
                self._parse_weak_constraint(program)
            else:
                program.rules.append(self._parse_rule())
        return program

    def _parse_weak_constraint(self, program: ast.Program) -> None:
        """``:~ body. [weight@priority, terms]`` (ASP-Core-2).

        Desugared into the same internal ``&__minimize`` theory-atom form
        as ``#minimize``: the body becomes the element condition.
        """
        start = self._expect(":~")
        body: Tuple[ast.BodyItem, ...] = ()
        if self._peek().kind != ".":
            body = tuple(self._parse_body())
        self._expect(".")
        self._expect("[")
        weight = self._parse_term()
        priority: ast.Term = ast.SymbolTerm(Number(0))
        if self._peek().kind == "@":
            self._next()
            priority = self._parse_term()
        terms: List[ast.Term] = [weight]
        while self._peek().kind == ",":
            self._next()
            terms.append(self._parse_term())
        self._expect("]")
        condition: List[ast.Literal] = []
        for item in body:
            if not isinstance(item, ast.Literal):
                where = item.location or self._loc(start)
                raise ParseError(
                    "aggregates are not supported in weak constraint bodies",
                    where.line,
                    where.column,
                    token=f"#{item.function}",
                )
            condition.append(item)
        head = ast.TheoryAtom(
            "__minimize",
            (priority,),
            (ast.TheoryElement(tuple(terms), tuple(condition)),),
            None,
        )
        program.rules.append(ast.Rule(head, (), location=self._loc(start)))

    def _parse_directive(self, program: ast.Program) -> None:
        token = self._next()
        if token.value == "#const":
            name = self._expect("IDENT").value
            self._expect("=")
            value = self._parse_term()
            self._expect(".")
            program.constants[name] = value
        elif token.value == "#show":
            if program.shows is None:
                program.shows = set()
            if self._peek().kind == ".":
                self._next()  # bare "#show." : project everything away
                return
            name = self._expect("IDENT").value
            self._expect("/")
            arity = int(self._expect("NUMBER").value)
            self._expect(".")
            program.shows.add((name, arity))
        elif token.value in ("#minimize", "#maximize"):
            self._parse_minimize(
                program, maximize=token.value == "#maximize", start=token
            )
        elif token.value == "#external":
            # "#external atom [: condition]." — desugared into a choice
            # rule (the atom is free) plus a signature record; Control
            # pins the truth value through assumptions (default false).
            atom = self._parse_symbolic_atom()
            condition: Tuple[ast.Literal, ...] = ()
            if self._peek().kind == ":":
                self._next()
                condition = tuple(self._parse_condition())
            self._expect(".")
            program.externals.add((atom.name, len(atom.arguments)))
            head = ast.ChoiceHead((ast.ChoiceElement(atom, ()),), None, None)
            program.rules.append(ast.Rule(head, condition, location=self._loc(token)))
        else:
            raise ParseError(
                f"unsupported directive {token.value!r}",
                token.line,
                token.column,
                token=token.value,
            )

    def _parse_minimize(
        self, program: ast.Program, maximize: bool, start: Token
    ) -> None:
        """Parse ``#minimize { w[@p], t... : cond ; ... }.``

        Each element is desugared into an internal theory-atom rule
        ``&__minimize(p) { w, t... : cond }.`` which the grounder
        instantiates like any theory atom; :meth:`repro.asp.control
        .Control.optimize` interprets the ground instances.
        ``#maximize`` negates the weights.
        """
        self._expect("{")
        zero = ast.SymbolTerm(Number(0))
        while self._peek().kind != "}":
            weight = self._parse_term()
            priority: ast.Term = zero
            if self._peek().kind == "@":
                self._next()
                priority = self._parse_term()
            terms: List[ast.Term] = [
                ast.UnaryTerm("-", weight) if maximize else weight
            ]
            while self._peek().kind == ",":
                self._next()
                terms.append(self._parse_term())
            condition: Tuple[ast.Literal, ...] = ()
            if self._peek().kind == ":":
                self._next()
                condition = tuple(self._parse_condition())
            head = ast.TheoryAtom(
                "__minimize",
                (priority,),
                (ast.TheoryElement(tuple(terms), condition),),
                None,
            )
            program.rules.append(ast.Rule(head, (), location=self._loc(start)))
            if self._peek().kind == ";":
                self._next()
                continue
            break
        self._expect("}")
        self._expect(".")

    # -- rules ---------------------------------------------------------------

    def _parse_rule(self) -> ast.Rule:
        start = self._peek()
        head: ast.Head
        if start.kind == ":-":
            head = None
        else:
            head = self._parse_head()
        body: Tuple[ast.BodyItem, ...] = ()
        if self._peek().kind == ":-":
            self._next()
            body = tuple(self._parse_body())
        self._expect(".")
        return ast.Rule(head, body, location=self._loc(start))

    def _parse_head(self) -> ast.Head:
        token = self._peek()
        if token.kind == "&":
            return self._parse_theory_atom()
        if token.kind == "{":
            return self._parse_choice(lower=None)
        # Possibly "lower { ... } upper".
        checkpoint = self._pos
        if token.kind in ("NUMBER", "VARIABLE", "IDENT", "("):
            try:
                lower = self._parse_term()
            except ParseError:
                self._pos = checkpoint
                lower = None
            if lower is not None and self._peek().kind == "{":
                return self._parse_choice(lower=lower)
            self._pos = checkpoint
        atom = self._parse_symbolic_atom()
        return atom

    def _parse_choice(self, lower: Optional[ast.Term]) -> ast.ChoiceHead:
        self._expect("{")
        elements: List[ast.ChoiceElement] = []
        if self._peek().kind != "}":
            while True:
                atom = self._parse_symbolic_atom()
                condition: Tuple[ast.Literal, ...] = ()
                if self._peek().kind == ":":
                    self._next()
                    condition = tuple(self._parse_condition())
                elements.append(ast.ChoiceElement(atom, condition))
                if self._peek().kind == ";":
                    self._next()
                    continue
                break
        self._expect("}")
        upper: Optional[ast.Term] = None
        if self._peek().kind in ("NUMBER", "VARIABLE", "IDENT", "("):
            upper = self._parse_term()
        return ast.ChoiceHead(tuple(elements), lower, upper)

    def _parse_theory_atom(self) -> ast.TheoryAtom:
        self._expect("&")
        name = self._expect("IDENT").value
        arguments: Tuple[ast.Term, ...] = ()
        if self._peek().kind == "(":
            self._next()
            args: List[ast.Term] = [self._parse_term()]
            while self._peek().kind == ",":
                self._next()
                args.append(self._parse_term())
            self._expect(")")
            arguments = tuple(args)
        self._expect("{")
        elements: List[ast.TheoryElement] = []
        if self._peek().kind != "}":
            while True:
                terms = [self._parse_term()]
                while self._peek().kind == ",":
                    self._next()
                    terms.append(self._parse_term())
                condition: Tuple[ast.Literal, ...] = ()
                if self._peek().kind == ":":
                    self._next()
                    condition = tuple(self._parse_condition())
                elements.append(ast.TheoryElement(tuple(terms), condition))
                if self._peek().kind == ";":
                    self._next()
                    continue
                break
        self._expect("}")
        guard: Optional[Tuple[str, ast.Term]] = None
        if self._peek().kind in _COMPARISON_TOKENS:
            op = self._next().kind
            guard = (op, self._parse_term())
        return ast.TheoryAtom(name, arguments, tuple(elements), guard)

    # -- body ----------------------------------------------------------------

    def _parse_body(self) -> List[ast.BodyItem]:
        items = [self._parse_body_item()]
        while self._peek().kind == ",":
            self._next()
            items.append(self._parse_body_item())
        return items

    def _parse_body_item(self) -> ast.BodyItem:
        start = self._peek()
        sign = 0
        while self._peek().kind == "IDENT" and self._peek().value == "not":
            self._next()
            sign += 1
        sign %= 2
        token = self._peek()
        if token.kind == "DIRECTIVE" and token.value in ("#count", "#sum", "#min", "#max"):
            return self._parse_aggregate(sign, left_guard=None, start=start)
        # Could be: atom, comparison, or "term op #agg".
        checkpoint = self._pos
        term = self._parse_term()
        if self._peek().kind in _COMPARISON_TOKENS:
            op = self._next().kind
            after = self._peek()
            if after.kind == "DIRECTIVE" and after.value in ("#count", "#sum", "#min", "#max"):
                # "t op #agg{...}": normalize to a guard with the aggregate
                # on the left-hand side.
                return self._parse_aggregate(
                    sign, left_guard=(_INVERT_OP[op], term), start=start
                )
            rhs = self._parse_term()
            return ast.Literal(
                sign, ast.Comparison(op, term, rhs), location=self._loc(start)
            )
        # Plain symbolic atom: re-parse strictly as an atom.
        self._pos = checkpoint
        atom = self._parse_symbolic_atom()
        return ast.Literal(sign, atom, location=self._loc(start))

    def _parse_aggregate(
        self,
        sign: int,
        left_guard: Optional[Tuple[str, ast.Term]],
        start: Optional[Token] = None,
    ) -> ast.Aggregate:
        directive = self._next()
        function = directive.value[1:]
        self._expect("{")
        elements: List[ast.AggregateElement] = []
        if self._peek().kind != "}":
            while True:
                terms = [self._parse_term()]
                while self._peek().kind == ",":
                    self._next()
                    terms.append(self._parse_term())
                condition: Tuple[ast.Literal, ...] = ()
                if self._peek().kind == ":":
                    self._next()
                    condition = tuple(self._parse_condition())
                elements.append(ast.AggregateElement(tuple(terms), condition))
                if self._peek().kind == ";":
                    self._next()
                    continue
                break
        self._expect("}")
        right_guard: Optional[Tuple[str, ast.Term]] = None
        if self._peek().kind in _COMPARISON_TOKENS:
            op = self._next().kind
            right_guard = (op, self._parse_term())
        return ast.Aggregate(
            sign,
            function,
            tuple(elements),
            left_guard,
            right_guard,
            location=self._loc(start or directive),
        )

    def _parse_condition(self) -> List[ast.Literal]:
        """Parse a comma-separated list of literals in an element condition."""
        literals = [self._parse_condition_literal()]
        while self._peek().kind == ",":
            # A comma may also terminate the condition (next body item); a
            # condition literal always starts with "not", an identifier, or
            # a term usable in a comparison.  We disambiguate by attempting
            # a parse and rolling back.
            checkpoint = self._pos
            self._next()
            try:
                literals.append(self._parse_condition_literal())
            except ParseError:
                self._pos = checkpoint
                break
        return literals

    def _parse_condition_literal(self) -> ast.Literal:
        start = self._peek()
        sign = 0
        while self._peek().kind == "IDENT" and self._peek().value == "not":
            self._next()
            sign += 1
        sign %= 2
        checkpoint = self._pos
        term = self._parse_term()
        if self._peek().kind in _COMPARISON_TOKENS:
            op = self._next().kind
            rhs = self._parse_term()
            return ast.Literal(
                sign, ast.Comparison(op, term, rhs), location=self._loc(start)
            )
        self._pos = checkpoint
        return ast.Literal(
            sign, self._parse_symbolic_atom(), location=self._loc(start)
        )

    # -- atoms and terms -----------------------------------------------------

    def _parse_argument(self) -> ast.Term:
        """One function argument; ``;`` builds a pool (``p(1;2)``)."""
        term = self._parse_term()
        if self._peek().kind != ";":
            return term
        options = [term]
        while self._peek().kind == ";":
            self._next()
            options.append(self._parse_term())
        return ast.PoolTerm(tuple(options))

    def _parse_symbolic_atom(self) -> ast.FunctionTerm:
        token = self._expect("IDENT")
        arguments: Tuple[ast.Term, ...] = ()
        if self._peek().kind == "(":
            self._next()
            args = [self._parse_argument()]
            while self._peek().kind == ",":
                self._next()
                args.append(self._parse_argument())
            self._expect(")")
            arguments = tuple(args)
        return ast.FunctionTerm(token.value, arguments)

    def _parse_term(self) -> ast.Term:
        return self._parse_interval()

    def _parse_interval(self) -> ast.Term:
        lhs = self._parse_additive()
        if self._peek().kind == "..":
            self._next()
            rhs = self._parse_additive()
            return ast.IntervalTerm(lhs, rhs)
        return lhs

    def _parse_additive(self) -> ast.Term:
        term = self._parse_multiplicative()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._parse_multiplicative()
            term = ast.BinaryTerm(op, term, rhs)
        return term

    def _parse_multiplicative(self) -> ast.Term:
        term = self._parse_power()
        while self._peek().kind in ("*", "/", "\\"):
            op = self._next().kind
            rhs = self._parse_power()
            term = ast.BinaryTerm(op, term, rhs)
        return term

    def _parse_power(self) -> ast.Term:
        base = self._parse_unary()
        if self._peek().kind == "**":
            self._next()
            exponent = self._parse_power()  # right-associative
            return ast.BinaryTerm("**", base, exponent)
        return base

    def _parse_unary(self) -> ast.Term:
        token = self._peek()
        if token.kind == "-":
            self._next()
            return ast.UnaryTerm("-", self._parse_unary())
        if token.kind == "|":
            self._next()
            inner = self._parse_term()
            self._expect("|")
            return ast.UnaryTerm("|", inner)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Term:
        token = self._next()
        if token.kind == "NUMBER":
            return ast.SymbolTerm(Number(int(token.value)))
        if token.kind == "STRING":
            raw = token.value[1:-1]
            value = raw.replace('\\"', '"').replace("\\\\", "\\")
            return ast.SymbolTerm(String(value))
        if token.kind == "VARIABLE":
            if token.value == "_":
                self._anonymous_counter += 1
                return ast.Variable(f"_Anon{self._anonymous_counter}")
            return ast.Variable(token.value)
        if token.kind == "IDENT":
            if self._peek().kind == "(":
                self._next()
                args = [self._parse_argument()]
                while self._peek().kind == ",":
                    self._next()
                    args.append(self._parse_argument())
                self._expect(")")
                return ast.FunctionTerm(token.value, tuple(args))
            return ast.FunctionTerm(token.value, ())
        if token.kind == "(":
            items = [self._parse_term()]
            trailing_comma = False
            while self._peek().kind == ",":
                self._next()
                if self._peek().kind == ")":
                    trailing_comma = True
                    break
                items.append(self._parse_term())
            self._expect(")")
            if len(items) > 1 or trailing_comma:
                return ast.FunctionTerm("", tuple(items))
            return items[0]
        raise ParseError(
            f"unexpected token {token.value!r} in term",
            token.line,
            token.column,
            token=token.value,
        )


def parse_program(text: str) -> ast.Program:
    """Parse a full program from ``text``."""
    return _Parser(tokenize(text)).parse_program()


def parse_ground_term(text: str) -> Symbol:
    """Parse and evaluate a single ground term, returning a symbol."""
    from repro.asp.grounder import evaluate_term

    tokens = tokenize(text)
    first = tokens[0]
    parser = _Parser(tokens)
    term = parser._parse_term()
    if parser._peek().kind != "EOF":
        token = parser._peek()
        raise ParseError(
            "trailing input after term", token.line, token.column, token=token.value
        )
    symbol = evaluate_term(term, {})
    if symbol is None:
        raise ParseError(
            "term is not ground or not evaluable",
            first.line,
            first.column,
            token=first.value,
        )
    return symbol

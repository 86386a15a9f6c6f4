"""The tokenizer for C extended with the macro language's meta-tokens.

The scanner is a maximal-munch tokenizer.  Two small deviations from a
stock C tokenizer serve the macro language:

* meta-tokens (``{|``, ``|}``, ``$$``, ``::``, ``$``, `````` ` ``,
  ``@``) are recognized, longest spelling first, and
* meta-token recognition can be disabled (``meta=False``) so the same
  scanner doubles as the plain C tokenizer used by the token-macro
  baseline.

The hot path is a single compiled *master regex*: one alternation of
named groups (whitespace, comments, identifiers, numbers, strings,
chars, meta-tokens, punctuators) compiled once per ``meta`` mode and
applied with ``match`` at the current offset.  Alternatives are ordered
so first-match equals maximal munch (e.g. ``<<=`` before ``<<`` before
``<``).  Identifier, punctuator and meta-token texts are interned so
repeated spellings share one string object.  Inputs the master regex
rejects — malformed literals, unterminated strings, stray characters —
fall back to the original per-character scan routines, which raise the
exact historical :class:`~repro.errors.LexError` messages.

Comments (``/* */`` and ``//``) are skipped.  Line/column bookkeeping
feeds :class:`~repro.errors.SourceLocation` on every token.
"""

from __future__ import annotations

import re
import sys

from repro.errors import LexError, SourceLocation
from repro.lexer.tokens import (
    ALL_KEYWORDS,
    META_TOKEN_SPELLINGS,
    PUNCTUATORS,
    Token,
    TokenKind,
)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")
_OCTAL_DIGITS = frozenset("01234567")

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "v": "\v", "f": "\f",
    "a": "\a", "b": "\b", "0": "\0", "\\": "\\", "'": "'",
    '"': '"', "?": "?",
}

_META_KINDS = dict(META_TOKEN_SPELLINGS)


def _build_master(meta: bool) -> re.Pattern[str]:
    """Compile the master token regex for one scanner mode.

    Group order *is* the munch order: comments before the ``/``
    punctuator, the valid hex literal before its ``0x``-without-digits
    error form, floats before ints before the ``.`` punctuator, and
    meta-tokens (longest spelling first) before punctuators so ``{|``
    beats ``{`` and ``::`` beats ``:``.
    """
    punct_alt = "|".join(re.escape(p) for p in PUNCTUATORS)
    parts = [
        r"(?P<ws>[ \t\r\n\f\v]+)",
        r"(?P<lc>//[^\n]*)",
        # Unrolled-loop block comment (no catastrophic backtracking).
        r"(?P<bc>/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)",
        r"(?P<badbc>/\*)",
        r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
        r"(?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)",
        r"(?P<badhex>0[xX])",
        # `1.` and `.5` floats, but not `1..2` (range-like `..`), with
        # an exponent only when it has digits (`1e` lexes as `1`, `e`).
        r"(?P<flt>(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
        r"[fFlL]*|[0-9]+[eE][+-]?[0-9]+[fFlL]*)",
        r"(?P<int>[0-9]+[uUlL]*)",
        # Well-shaped complete literals only; anything else (newline,
        # unterminated, bad escape) drops to the slow path / decoder.
        r'(?P<str>"(?:[^"\\\n]|\\[^\n])*")',
        r"(?P<chr>'(?:\\x[0-9a-fA-F]+|\\[0-7]{1,3}|\\[^\n]|[^'\\\n])')",
    ]
    if meta:
        meta_alt = "|".join(re.escape(s) for s, _ in META_TOKEN_SPELLINGS)
        parts.append(f"(?P<meta>{meta_alt})")
    parts.append(f"(?P<punct>{punct_alt})")
    return re.compile("|".join(parts))


#: One compiled master regex per ``meta`` mode, shared by all scanners.
_MASTER_CACHE: dict[bool, re.Pattern[str]] = {}


def _master_for(meta: bool) -> re.Pattern[str]:
    pattern = _MASTER_CACHE.get(meta)
    if pattern is None:
        pattern = _MASTER_CACHE[meta] = _build_master(meta)
    return pattern


class Scanner:
    """Tokenizes a source buffer into a list of :class:`Token`.

    Parameters
    ----------
    source:
        The program text.
    filename:
        Used in source locations and error messages.
    meta:
        When true (the default), the seven macro-language meta-tokens
        are recognized.  When false the scanner behaves as a plain C
        tokenizer (``$`` and `````` ` `` become lex errors, ``@`` too).
    keep_keywords:
        When false, C keywords are returned as plain identifiers.  The
        token-macro baseline uses this mode because CPP does not treat
        keywords specially.
    stats:
        Optional :class:`repro.stats.PipelineStats`; when supplied the
        scanner bumps ``tokens_scanned``.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<string>",
        *,
        meta: bool = True,
        keep_keywords: bool = True,
        stats=None,
    ) -> None:
        self.source = source
        self.filename = filename
        self.meta = meta
        self.keep_keywords = keep_keywords
        self.stats = stats
        self.pos = 0
        self.line = 1
        self._line_start = 0
        self._master = _master_for(meta)

    @property
    def col(self) -> int:
        return self.pos - self._line_start + 1

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def tokenize(self) -> list[Token]:
        """Scan the whole buffer, returning tokens ending with EOF."""
        tokens: list[Token] = []
        while True:
            token = self.next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    def next_token(self) -> Token:
        """Scan and return the next token (EOF at end of buffer)."""
        source = self.source
        length = len(source)
        match = self._master.match
        while True:
            if self.pos >= length:
                return Token(TokenKind.EOF, "", self._loc())
            m = match(source, self.pos)
            if m is None:
                return self._next_token_slow()
            group = m.lastgroup
            if group == "ws" or group == "lc" or group == "bc":
                text = m.group()
                newlines = text.count("\n")
                if newlines:
                    self.line += newlines
                    self._line_start = self.pos + text.rindex("\n") + 1
                self.pos = m.end()
                continue
            break

        loc = self._loc()
        text = m.group()
        self.pos = m.end()
        stats = self.stats
        if stats is not None:
            stats.tokens_scanned += 1

        if group == "ident":
            interned = sys.intern(text)
            if self.keep_keywords and interned in ALL_KEYWORDS:
                return Token(TokenKind.KEYWORD, interned, loc)
            return Token(TokenKind.IDENT, interned, loc)
        if group == "punct":
            return Token(TokenKind.PUNCT, sys.intern(text), loc)
        if group == "int" or group == "hex":
            return Token(
                TokenKind.INT_LIT, text, loc, value=_decode_int(text)
            )
        if group == "meta":
            interned = sys.intern(text)
            return Token(_META_KINDS[interned], interned, loc)
        if group == "str":
            return Token(
                TokenKind.STRING_LIT, text, loc,
                value=self._decode_escaped(text[1:-1], loc),
            )
        if group == "flt":
            return Token(
                TokenKind.FLOAT_LIT, text, loc,
                value=float(text.rstrip("fFlL")),
            )
        if group == "chr":
            body = text[1:-1]
            if body.startswith("\\"):
                body = self._decode_escaped(body, loc)
            return Token(TokenKind.CHAR_LIT, text, loc, value=ord(body))
        if group == "badhex":
            raise LexError("malformed hexadecimal literal", loc)
        # group == "badbc"
        raise LexError("unterminated block comment", loc)

    # ------------------------------------------------------------------
    # Slow path: per-character scan, reached only on inputs the master
    # regex rejects.  Produces the historical LexError diagnostics.
    # ------------------------------------------------------------------

    def _next_token_slow(self) -> Token:
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", self._loc())

        ch = self.source[self.pos]
        if ch in _IDENT_START:
            return self._scan_identifier()
        if ch in _DIGITS or (ch == "." and self._peek(1) in _DIGITS):
            return self._scan_number()
        if ch == '"':
            return self._scan_string()
        if ch == "'":
            return self._scan_char()

        if self.meta:
            for spelling, kind in META_TOKEN_SPELLINGS:
                if self.source.startswith(spelling, self.pos):
                    loc = self._loc()
                    self._advance(len(spelling))
                    return Token(kind, spelling, loc)

        for spelling in PUNCTUATORS:
            if self.source.startswith(spelling, self.pos):
                loc = self._loc()
                self._advance(len(spelling))
                return Token(TokenKind.PUNCT, spelling, loc)

        raise LexError(f"unexpected character {ch!r}", self._loc())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(
            self.line, self.pos - self._line_start + 1, self.pos,
            self.filename,
        )

    def _peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        if index < len(self.source):
            return self.source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        source = self.source
        pos = self.pos
        end = min(pos + count, len(source))
        while pos < end:
            if source[pos] == "\n":
                self.line += 1
                self._line_start = pos + 1
            pos += 1
        self.pos = pos

    def _decode_escaped(self, body: str, loc: SourceLocation) -> str:
        """Decode the escapes of a regex-matched literal body, raising
        the same diagnostics as the character-at-a-time scanner."""
        if "\\" not in body:
            return body
        out: list[str] = []
        i = 0
        n = len(body)
        while i < n:
            ch = body[i]
            if ch != "\\":
                out.append(ch)
                i += 1
                continue
            i += 1
            if i >= n:
                raise LexError("unterminated escape sequence", loc)
            ch = body[i]
            if ch in _SIMPLE_ESCAPES:
                out.append(_SIMPLE_ESCAPES[ch])
                i += 1
                continue
            if ch == "x":
                i += 1
                start = i
                while i < n and body[i] in _HEX_DIGITS:
                    i += 1
                if i == start:
                    raise LexError("malformed hex escape", loc)
                out.append(chr(int(body[start:i], 16)))
                continue
            if ch in _OCTAL_DIGITS:
                start = i
                while i < n and body[i] in _OCTAL_DIGITS and i - start < 3:
                    i += 1
                out.append(chr(int(body[start:i], 8)))
                continue
            raise LexError(f"unknown escape sequence \\{ch}", loc)
        return "".join(out)

    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            ch = self.source[self.pos]
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self.source[self.pos] != "\n":
                    self._advance()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self._loc()
        self._advance(2)
        while self.pos < len(self.source):
            if self.source[self.pos] == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise LexError("unterminated block comment", start)

    def _scan_identifier(self) -> Token:
        loc = self._loc()
        start = self.pos
        while self.pos < len(self.source) and self.source[self.pos] in _IDENT_CONT:
            self._advance()
        text = self.source[start : self.pos]
        if self.keep_keywords and text in ALL_KEYWORDS:
            return Token(TokenKind.KEYWORD, text, loc)
        return Token(TokenKind.IDENT, text, loc)

    def _scan_number(self) -> Token:
        loc = self._loc()
        start = self.pos
        is_float = False

        if self.source[self.pos] == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if self._peek() not in _HEX_DIGITS:
                raise LexError("malformed hexadecimal literal", loc)
            while self._peek() in _HEX_DIGITS:
                self._advance()
        else:
            while self._peek() in _DIGITS:
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek() in _DIGITS:
                    self._advance()
            if self._peek() and self._peek() in "eE" and (
                self._peek(1) in _DIGITS
                or (self._peek(1) in ("+", "-") and self._peek(2) in _DIGITS)
            ):
                is_float = True
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                while self._peek() in _DIGITS:
                    self._advance()

        # Integer / float suffixes.
        if is_float:
            while self._peek() and self._peek() in "fFlL":
                self._advance()
        else:
            while self._peek() and self._peek() in "uUlL":
                self._advance()

        text = self.source[start : self.pos]
        if is_float:
            return Token(
                TokenKind.FLOAT_LIT, text, loc, value=float(text.rstrip("fFlL"))
            )
        return Token(
            TokenKind.INT_LIT, text, loc, value=_decode_int(text)
        )

    def _scan_string(self) -> Token:
        loc = self._loc()
        start = self.pos
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string literal", loc)
            ch = self.source[self.pos]
            if ch == "\n":
                raise LexError("newline in string literal", loc)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                chars.append(self._scan_escape(loc))
            else:
                chars.append(ch)
                self._advance()
        text = self.source[start : self.pos]
        return Token(TokenKind.STRING_LIT, text, loc, value="".join(chars))

    def _scan_char(self) -> Token:
        loc = self._loc()
        start = self.pos
        self._advance()  # opening quote
        if self._peek() == "'":
            raise LexError("empty character literal", loc)
        if self._peek() == "\\":
            decoded = self._scan_escape(loc)
        else:
            decoded = self._peek()
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", loc)
        self._advance()
        text = self.source[start : self.pos]
        return Token(TokenKind.CHAR_LIT, text, loc, value=ord(decoded))

    def _scan_escape(self, loc: SourceLocation) -> str:
        self._advance()  # backslash
        ch = self._peek()
        if ch == "":
            raise LexError("unterminated escape sequence", loc)
        if ch in _SIMPLE_ESCAPES:
            self._advance()
            return _SIMPLE_ESCAPES[ch]
        if ch == "x":
            self._advance()
            digits = []
            while self._peek() in _HEX_DIGITS:
                digits.append(self._peek())
                self._advance()
            if not digits:
                raise LexError("malformed hex escape", loc)
            return chr(int("".join(digits), 16))
        if ch in _OCTAL_DIGITS:
            digits = []
            while self._peek() in _OCTAL_DIGITS and len(digits) < 3:
                digits.append(self._peek())
                self._advance()
            return chr(int("".join(digits), 8))
        raise LexError(f"unknown escape sequence \\{ch}", loc)


def _decode_int(text: str) -> int:
    body = text.rstrip("uUlL")
    if body.lower().startswith("0x"):
        return int(body, 16)
    if body.startswith("0") and len(body) > 1:
        return int(body, 8)
    return int(body)


def tokenize(source: str, filename: str = "<string>", **kwargs) -> list[Token]:
    """Convenience wrapper: scan ``source`` into a token list."""
    return Scanner(source, filename, **kwargs).tokenize()

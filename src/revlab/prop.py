"""Finite propositional logic over an ordered signature.

Everything is reduced to integer bit arithmetic as early as possible:

* a world (interpretation) is an int in ``range(2**n_atoms)``; the atom at
  signature position i occupies bit ``n_atoms - 1 - i``, so the textual
  world "ab̄" over {a, b} is ``0b10`` = 2,
* a set of worlds is an int bit-mask with bit w set iff world w belongs,
* a formula class (formula up to logical equivalence) IS its model mask.

Syntax trees exist only at the I/O boundary; ``models()`` folds a tree into
a mask using per-atom world masks, after which all reasoning is mask
arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ParseError, TooLargeError, UnknownAtomError

MAX_ATOMS = 16

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class Signature:
    atoms: tuple[str, ...]

    def __post_init__(self):
        if len(self.atoms) > MAX_ATOMS:
            raise TooLargeError(f"signature supports at most {MAX_ATOMS} atoms, got {len(self.atoms)}")
        if not self.atoms:
            raise ParseError("signature must have at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ParseError("atom names must be unique")
        for a in self.atoms:
            if not _ATOM_RE.fullmatch(a):
                raise ParseError(f"bad atom name {a!r} (want [a-z][a-z0-9_]*)")

    @staticmethod
    def of(text: str) -> "Signature":
        """Builds a signature from whitespace- or comma-separated atom names."""
        return Signature(tuple(text.replace(",", " ").split()))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_worlds(self) -> int:
        return 1 << len(self.atoms)

    @property
    def all_worlds(self) -> int:
        """Mask containing every world."""
        return (1 << self.n_worlds) - 1

    def atom_bit(self, name: str) -> int:
        """Bit position of an atom inside a world's bit pattern."""
        return self.n_atoms - 1 - self.atoms.index(name)

    def atom_models(self, name: str) -> int:
        """World-set mask of the single-atom formula `name`."""
        if name not in self.atoms:
            raise UnknownAtomError(name)
        bit = self.atom_bit(name)
        return sum(1 << w for w in range(self.n_worlds) if (w >> bit) & 1)

    def world_of_str(self, text: str) -> int:
        """Parses a world written as a signature-order bit string, e.g. '010'."""
        if len(text) != self.n_atoms or any(c not in "01" for c in text):
            raise ParseError(f"world {text!r} does not match signature of {self.n_atoms} atoms")
        return int(text, 2)

    def world_str(self, world: int) -> str:
        return format(world, f"0{self.n_atoms}b")

    def worldset_of_strs(self, text: str) -> int:
        mask = 0
        for tok in text.split():
            mask |= 1 << self.world_of_str(tok)
        return mask

    def worldset_str(self, mask: int) -> str:
        return " ".join(self.world_str(w) for w in iter_worlds(mask))


def iter_worlds(mask: int) -> Iterator[int]:
    """Worlds of a mask in ascending order, one set bit stripped per step."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


# ---------------------------------------------------------------------------
# Formula syntax trees


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Top(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    def __str__(self):
        return "false"


@dataclass(frozen=True, slots=True)
class Not(Formula):
    arg: Formula

    def __str__(self):
        return f"!{_wrap(self.arg, (Atom, Not, Top, Bottom))}"


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left, (Atom, Not, Top, Bottom, And))} & {_wrap(self.right, (Atom, Not, Top, Bottom))}"


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left, (Atom, Not, Top, Bottom, And, Or))} | {_wrap(self.right, (Atom, Not, Top, Bottom, And))}"


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left, (Atom, Not, Top, Bottom, And, Or))} -> {_wrap(self.right, (Atom, Not, Top, Bottom, And, Or, Implies))}"


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left, (Atom, Not, Top, Bottom, And, Or, Implies))} <-> {_wrap(self.right, (Atom, Not, Top, Bottom, And, Or, Implies, Iff))}"


def _wrap(f: Formula, bare: tuple) -> str:
    s = str(f)
    return s if isinstance(f, bare) else f"({s})"


# ---------------------------------------------------------------------------
# Parser
#
# Grammar (ASCII), loosest first, arrows right-associative:
#   iff     := implies ('<->' iff)?
#   implies := or ('->' implies)?
#   or      := and ('|' and)*
#   and     := unary ('&' unary)*
#   unary   := '!' unary | '(' iff ')' | 'true' | 'false' | atom


@dataclass
class _Parser:
    text: str
    sig: Signature
    pos: int = 0
    tokens: list[tuple[str, str, int]] = field(default_factory=list)

    _TOKEN_RE = re.compile(r"\s*(?:(<->|->|[!&|()])|([a-z][a-z0-9_]*))")

    def tokenize(self):
        i = 0
        while i < len(self.text):
            m = self._TOKEN_RE.match(self.text, i)
            if m is None:
                rest = self.text[i:].lstrip()
                if not rest:
                    break
                raise ParseError(f"unexpected character {rest[0]!r}", len(self.text) - len(rest))
            if m.group(1):
                self.tokens.append(("op", m.group(1), m.start(1)))
            else:
                word = m.group(2)
                kind = "const" if word in ("true", "false") else "atom"
                self.tokens.append((kind, word, m.start(2)))
            i = m.end()
        self.tokens.append(("end", "", len(self.text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        self.take()

    def parse(self) -> Formula:
        self.tokenize()
        f = self.iff()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return f

    def iff(self) -> Formula:
        left = self.implies()
        kind, val, _ = self.peek()
        if kind == "op" and val == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.or_()
        kind, val, _ = self.peek()
        if kind == "op" and val == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def or_(self) -> Formula:
        f = self.and_()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "|":
                self.take()
                f = Or(f, self.and_())
            else:
                return f

    def and_(self) -> Formula:
        f = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "&":
                self.take()
                f = And(f, self.unary())
            else:
                return f

    def unary(self) -> Formula:
        kind, val, at = self.take()
        if kind == "op" and val == "!":
            return Not(self.unary())
        if kind == "op" and val == "(":
            f = self.iff()
            self.expect_op(")")
            return f
        if kind == "const":
            return Top() if val == "true" else Bottom()
        if kind == "atom":
            if val not in self.sig.atoms:
                raise UnknownAtomError(val, at)
            return Atom(val)
        raise ParseError("expected a formula", at)


def parse(text: str, sig: Signature) -> Formula:
    """Parses a formula; raises ParseError / UnknownAtomError with offsets."""
    return _Parser(text, sig).parse()


# ---------------------------------------------------------------------------
# Semantics


def models(f: Formula, sig: Signature) -> int:
    """World-set mask of the formula's models (bit-parallel over all worlds)."""
    full = sig.all_worlds
    match f:
        case Atom(name):
            return sig.atom_models(name)
        case Top():
            return full
        case Bottom():
            return 0
        case Not(g):
            return full ^ models(g, sig)
        case And(l, r):
            return models(l, sig) & models(r, sig)
        case Or(l, r):
            return models(l, sig) | models(r, sig)
        case Implies(l, r):
            return (full ^ models(l, sig)) | models(r, sig)
        case Iff(l, r):
            return full ^ models(l, sig) ^ models(r, sig)
    raise TypeError(f"not a formula: {f!r}")


def parse_models(text: str, sig: Signature) -> int:
    return models(parse(text, sig), sig)


def eval_world(f: Formula, sig: Signature, world: int) -> bool:
    """Single-world truth evaluation; the independent oracle for models()."""
    match f:
        case Atom(name):
            return bool((world >> sig.atom_bit(name)) & 1)
        case Top():
            return True
        case Bottom():
            return False
        case Not(g):
            return not eval_world(g, sig, world)
        case And(l, r):
            return eval_world(l, sig, world) and eval_world(r, sig, world)
        case Or(l, r):
            return eval_world(l, sig, world) or eval_world(r, sig, world)
        case Implies(l, r):
            return (not eval_world(l, sig, world)) or eval_world(r, sig, world)
        case Iff(l, r):
            return eval_world(l, sig, world) == eval_world(r, sig, world)
    raise TypeError(f"not a formula: {f!r}")

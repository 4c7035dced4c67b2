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
        return sum({1 << self.world_of_str(tok) for tok in text.split()})

    def worldset_str(self, mask: int) -> str:
        return " ".join(self.world_str(w) for w in iter_worlds(mask))


def iter_worlds(mask: int) -> Iterator[int]:
    """Worlds of a mask in ascending order, one set bit stripped per step."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Formula syntax trees


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        """The formula with brackets only where the grammar needs them."""
        match self:
            case Atom(name):
                return name
            case Top():
                return "true"
            case Bottom():
                return "false"
            case Not(arg):
                return "!" + _operand(arg, _UNARY)
        level = _LEVEL[type(self)]
        token, _, right_assoc, _ = _BINARY[level]
        left = _operand(self.left, level + right_assoc)
        return f"{left} {token} {_operand(self.right, level + (not right_assoc))}"


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


# The binary connectives, loosest first: token, node class, whether it is
# right-associative, and a node's models from its sides' models and all worlds.
_BINARY = (
    ("<->", Iff, True, lambda a, b, full: full ^ a ^ b),
    ("->", Implies, True, lambda a, b, full: (full ^ a) | b),
    ("|", Or, False, lambda a, b, full: a | b),
    ("&", And, False, lambda a, b, full: a & b),
)
_LEVEL = {node: level for level, (_, node, _, _) in enumerate(_BINARY)}
_UNARY = len(_BINARY)  # the level of atoms, constants and negations


def _operand(f: Formula, loosest: int) -> str:
    """`f` as an operand that admits connectives of `loosest` level or tighter."""
    return str(f) if _LEVEL.get(type(f), _UNARY) >= loosest else f"({f})"


# ---------------------------------------------------------------------------
# Parser
#
# Grammar (ASCII), one rule per level of `_BINARY` and then the unary one:
#   binary(i) := binary(i+1) (op_i binary(i+1))*    for & and |
#   binary(i) := binary(i+1) (op_i binary(i))?      for the arrows
#   unary     := '!' unary | '(' binary(0) ')' | 'true' | 'false' | atom

_TOKEN_RE = re.compile(r"\s*(?:(?P<op><->|->|[!&|()])|(?P<word>[a-z][a-z0-9_]*)|(?P<bad>\S))")


@dataclass
class _Parser:
    text: str
    sig: Signature
    pos: int = 0
    tokens: list[tuple[str, str, int]] = field(default_factory=list)

    def tokenize(self):
        for m in _TOKEN_RE.finditer(self.text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))
        self.tokens.append(("end", "", len(self.text)))

    def accept(self, op: str) -> bool:
        """Consumes the next token if it is the operator `op`."""
        kind, val, _ = self.tokens[self.pos]
        if kind == "op" and val == op:
            self.pos += 1
            return True
        return False

    def parse(self) -> Formula:
        self.tokenize()
        f = self.binary(0)
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return f

    def binary(self, level: int) -> Formula:
        if level == _UNARY:
            return self.unary()
        token, node, right_assoc, _ = _BINARY[level]
        f = self.binary(level + 1)
        while self.accept(token):
            f = node(f, self.binary(level + (not right_assoc)))
        return f

    def unary(self) -> Formula:
        kind, val, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "op" and val == "!":
            return Not(self.unary())
        if kind == "op" and val == "(":
            f = self.binary(0)
            if not self.accept(")"):
                raise ParseError("expected ')'", self.tokens[self.pos][2])
            return f
        if kind == "word":
            if val in ("true", "false"):
                return Top() if val == "true" else Bottom()
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
    if type(f) not in _LEVEL:
        raise TypeError(f"not a formula: {f!r}")
    return _BINARY[_LEVEL[type(f)]][3](models(f.left, sig), models(f.right, sig), full)


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

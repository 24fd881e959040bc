"""Finite multiclass hypothesis classes: encoding, validation, I/O, transformations.

A hypothesis class is a finite set of distinct label vectors ("patterns") of a
common length n over the alphabet {0, ..., k-1}.  Everything downstream
(dimensions, bounds, graphs, certificates, learners) consumes this type.

All objects here are immutable; every operation is a pure function of its
inputs, so they may be called concurrently.  Randomness enters only through
explicit seeds.

``HypothesisClass`` and ``dims.ListClass`` are plain classes on one base,
``_Frozen``, which compares, hashes and prints them by their fields and
refuses assignment, as a frozen dataclass would; this module does not import
``dataclasses``, whose ``inspect`` import every command line run would pay.
``json`` is imported by the JSON reader and writer only.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import cached_property
from itertools import chain, product
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

Pattern = tuple[int, ...]
Coords = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 2 ** 24


class ClassFormatError(ValueError):
    """Malformed class input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapExceeded(RuntimeError):
    """An exhaustive routine would exceed its configured enumeration cap."""


_setattr = object.__setattr__


class _Frozen:
    """An immutable value: equality and hashing over the fields named in
    ``__match_args__``, in that order, and only against the same class; the
    repr ``Name(field=value, ...)``; and an ``AttributeError`` on assigning
    or deleting any attribute.  A subclass's ``__init__`` sets its fields
    with ``object.__setattr__``, which keeps the instance dict unmaterialised
    so that attribute reads stay specialised.  A ``cached_property`` writes
    the instance dict directly, and pickling copies that dict, cached
    values included."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HypothesisClass(_Frozen):
    """A set of distinct patterns in {0,...,k-1}^n.

    The empty class is representable (several operations reject it in their
    own preconditions); ``is_empty`` flags it.

    ``columns`` and ``label_masks``, the one per-class layout, are built on
    first use and kept; they take no part in equality or hashing.
    """

    __match_args__ = ("n", "k", "patterns")

    def __init__(self, n: int, k: int, patterns: frozenset[Pattern]):
        _setattr(self, "n", n)
        _setattr(self, "k", k)
        _setattr(self, "patterns", patterns)
        self.__post_init__()

    def __post_init__(self):
        """The validation, the last step of ``__init__``; the span tracer of
        ``perfbench/tracing.py`` wraps it under this name."""
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        # accept in bulk when every length is n and every distinct label an
        # int in [0, k); anything else, an exception included, takes the loop,
        # which names the first offending pattern
        try:
            labels = set().union(*self.patterns)
            if (set(map(len, self.patterns)) <= {self.n} and set(map(type, labels)) <= {int}
                    and min(labels, default=0) >= 0 and max(labels, default=0) < self.k):
                return
        except Exception:
            pass
        for p in self.patterns:
            if len(p) != self.n:
                raise ValueError(f"pattern {p} has length {len(p)}, expected {self.n}")
            for v in p:
                if not (0 <= v < self.k):
                    raise ValueError(f"label {v} out of range [0,{self.k}) in pattern {p}")

    @classmethod
    def from_patterns(cls, n: int, k: int, patterns: Iterable[Iterable[int]]) -> "HypothesisClass":
        return cls(n, k, frozenset(tuple(p) for p in patterns))

    @property
    def is_empty(self) -> bool:
        return not self.patterns

    def __len__(self) -> int:
        return len(self.patterns)

    def sorted_patterns(self) -> list[Pattern]:
        """Patterns in canonical (lexicographic) order."""
        return sorted(self.patterns)

    def __contains__(self, pattern) -> bool:
        return tuple(pattern) in self.patterns

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``columns[u][i]`` is the label of pattern i at u, the patterns in
        their iteration order; n empty tuples for the empty class."""
        return tuple(zip(*self.patterns)) or ((),) * self.n

    @cached_property
    def label_masks(self) -> tuple[tuple[int, ...], ...]:
        """Bit i of ``label_masks[u][y]`` is set when pattern i, in the order
        of ``columns``, has label y at u."""
        # each mask is parsed from a bit string, pattern 0 last, in time linear
        # in the class size; base 2 is exempt from the limit on int digits
        if self.k > 256:
            return tuple(tuple(int("0" + "".join("1" if v == y else "0" for v in reversed(col)), 2)
                               for y in range(self.k))
                         for col in self.columns)
        # labels fit in a byte: one translate per label maps y to "1", others to "0"
        rows = [bytes(col)[::-1] for col in self.columns]
        masks = []
        for y in range(self.k):
            table = bytearray(b"0" * 256)
            table[y] = ord("1")
            masks.append([int(row.translate(table) or b"0", 2) for row in rows])
        return tuple(zip(*masks))


def validate_coords(coords: Iterable[int], n: int) -> Coords:
    """Check a coordinate set: nonempty, strictly increasing, within [0, n)."""
    s = tuple(coords)
    if not s:
        raise ValueError("coordinate set must be nonempty")
    for a, b in zip(s, s[1:]):
        if a >= b:
            raise ValueError(f"coordinate set {s} is not strictly increasing")
    if s[0] < 0 or s[-1] >= n:
        raise ValueError(f"coordinate set {s} out of range [0,{n})")
    return s


def lines(patterns: Iterable[Pattern],
          directions: Sequence[int]) -> dict[tuple[int, Pattern], list[Pattern]]:
    """The line index: key (i, pattern without coordinate i) holds the
    patterns, in input order, that agree off direction i, for every i in
    ``directions``."""
    index: dict[tuple[int, Pattern], list[Pattern]] = defaultdict(list)
    for p in patterns:
        for i in directions:
            index[(i, p[:i] + p[i + 1:])].append(p)
    return index


def project(hc: HypothesisClass, coords: Iterable[int]) -> HypothesisClass:
    """Restrict every pattern to the given coordinates; duplicates collapse.

    The result has n = len(coords) and the same alphabet.
    """
    s = validate_coords(coords, hc.n)
    return HypothesisClass(len(s), hc.k, frozenset(zip(*[hc.columns[i] for i in s])))


def random_class(n: int, k: int, density: float, seed: int,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> HypothesisClass:
    """Include each of the k^n patterns independently with probability ``density``.

    Deterministic: the same seed yields the identical class.  density=1 gives
    the full cube, density=0 the (flagged) empty class.
    """
    _check_random_class(n, k, density, cap)
    rng = random.Random(seed)
    chosen = [p for p in product(range(k), repeat=n) if rng.random() < density]
    return HypothesisClass(n, k, frozenset(chosen))


def _check_random_class(n: int, k: int, density: float,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """The preconditions of ``random_class``, for callers that must reject
    bad parameters before drawing anything."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0,1], got {density}")
    total = k ** n
    if total > cap:
        raise CapExceeded(f"k^n = {total} exceeds enumeration cap {cap}")


def iter_all_classes(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[HypothesisClass]:
    """Every nonempty class over {0..k-1}^n, enumerated deterministically.

    There are 2^(k^n) - 1 of them; the bitmask of the lexicographic cell list
    runs from 1 upward.  Intended for exhaustive sweeps at tiny (n, k).  The
    cap is checked when this is called, not at the first ``next()``.
    """
    # k^n >= cap.bit_length() is 2^(k^n) > cap, checked before any cell is built
    if k ** n >= cap.bit_length():
        raise CapExceeded(f"2^(k^n) = 2^{k ** n} exceeds cap {cap}")
    cells = list(product(range(k), repeat=n))
    return (HypothesisClass(n, k, frozenset([cells[j] for j in range(len(cells))
                                             if mask >> j & 1]))
            for mask in range(1, 2 ** len(cells)))


# ---------------------------------------------------------------------------
# I/O: line-oriented class files and the JSON variant
# ---------------------------------------------------------------------------

def parse_class(text: str | bytes) -> HypothesisClass:
    """Parse a class file.

    Grammar: the first non-comment line is ``n=<int> k=<int>``; every
    following non-comment line holds n whitespace-separated labels; ``#``
    starts a comment.  A leading ``{`` switches to the JSON form.
    Duplicate rows are rejected.

    A file without comments is read in bulk first (``_parse_class_bulk``);
    anything else, and any file the bulk read does not accept, goes through
    the line loop, the only code that raises: its ``ClassFormatError`` names
    the first bad line.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_class_json(text)
    h = _parse_class_bulk(text)
    if h is not None:
        return h
    n = k = None
    patterns: set[Pattern] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("k="):
                raise ClassFormatError(lineno, f"expected header 'n=<int> k=<int>', got {line!r}")
            try:
                n = int(parts[0][2:])
                k = int(parts[1][2:])
            except ValueError:
                raise ClassFormatError(lineno, f"non-integer header field in {line!r}") from None
            if n < 1 or k < 2:
                raise ClassFormatError(lineno, f"need n >= 1 and k >= 2, got n={n} k={k}")
            continue
        fields = line.split()
        if len(fields) != n:
            raise ClassFormatError(lineno, f"expected {n} labels, got {len(fields)}")
        try:
            row = tuple(int(f) for f in fields)
        except ValueError:
            raise ClassFormatError(lineno, f"non-integer label in {line!r}") from None
        for v in row:
            if not (0 <= v < k):
                raise ClassFormatError(lineno, f"label {v} out of range [0,{k})")
        if row in patterns:
            raise ClassFormatError(lineno, f"duplicate pattern {row}")
        patterns.add(row)
    if n is None:
        raise ClassFormatError(1, "missing header line 'n=<int> k=<int>'")
    return HypothesisClass(n, k, frozenset(patterns))


def _parse_class_bulk(text: str) -> HypothesisClass | None:
    """The class of a comment-free class file, or None when the line loop
    of ``parse_class`` must read it: on a comment, and on anything that
    loop would reject.  The rows are the loop's fields, each line split
    once; ``int`` runs once per distinct token, and every check is a
    C-level pass over all rows."""
    if "#" in text:
        return None
    rows = list(filter(None, map(str.split, text.splitlines())))
    if not rows or len(rows[0]) != 2:
        return None
    (n_field, k_field), body = rows[0], rows[1:]
    if not (n_field.startswith("n=") and k_field.startswith("k=")):
        return None
    try:
        n, k = int(n_field[2:]), int(k_field[2:])
        if n < 1 or k < 2 or set(map(len, body)) != {n}:
            return None
        labels = {token: int(token) for token in set().union(*body)}
    except ValueError:
        return None
    if min(labels.values()) < 0 or max(labels.values()) >= k:
        return None
    # n references to one iterator: zip cuts it into the rows
    patterns = frozenset(zip(*[map(labels.__getitem__, chain.from_iterable(body))] * n))
    return HypothesisClass(n, k, patterns) if len(patterns) == len(body) else None


def parse_class_json(text: str | bytes) -> HypothesisClass:
    """Parse the structured form: {"n": ..., "k": ..., "patterns": [[...], ...]}.
    Integers are JSON numbers; ``true`` and ``false`` are rejected."""
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ClassFormatError(exc.lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ClassFormatError(1, "invalid JSON: nested too deeply") from None
    return _class_from_json(obj)


def _class_from_json(obj) -> HypothesisClass:
    """The class of a decoded JSON object, checked as ``parse_class_json``
    checks it; a certificate's embedded class is decoded by the same call."""
    if not isinstance(obj, dict):
        raise ClassFormatError(1, "expected a JSON object")
    for field in ("n", "k", "patterns"):
        if field not in obj:
            raise ClassFormatError(1, f"missing field {field!r}")
    n, k = obj["n"], obj["k"]
    if type(n) is not int or type(k) is not int or n < 1 or k < 2:
        raise ClassFormatError(1, f"need integer n >= 1 and k >= 2, got n={n!r} k={k!r}")
    rows = obj["patterns"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ClassFormatError(1, "field 'patterns' must be a list of lists")
    # accept in bulk when every row has length n and every label is an int
    # (not a bool) in [0, k) and no row repeats; else the loop names the
    # first bad row
    if (set(map(len, rows)) <= {n} and set(map(type, chain.from_iterable(rows))) <= {int}
            and min(chain.from_iterable(rows), default=0) >= 0
            and max(chain.from_iterable(rows), default=0) < k):
        distinct = frozenset(map(tuple, rows))
        if len(distinct) == len(rows):
            return HypothesisClass(n, k, distinct)
    patterns: set[Pattern] = set()
    for row in rows:
        t = tuple(row)
        if len(t) != n:
            raise ClassFormatError(1, f"pattern {t} has length {len(t)}, expected {n}")
        for v in t:
            if type(v) is not int or not (0 <= v < k):
                raise ClassFormatError(1, f"label {v!r} out of range [0,{k})")
        if t in patterns:
            raise ClassFormatError(1, f"duplicate pattern {t}")
        patterns.add(t)
    return HypothesisClass(n, k, frozenset(patterns))


def serialize_class(hc: HypothesisClass) -> str:
    """Canonical text form: header, then rows in lexicographic order."""
    lines = [f"n={hc.n} k={hc.k}"]
    lines.extend(" ".join(str(v) for v in p) for p in hc.sorted_patterns())
    return "\n".join(lines) + "\n"


def serialize_class_json(hc: HypothesisClass) -> str:
    """Canonical JSON form (rows sorted lexicographically)."""
    import json
    obj = {"n": hc.n, "k": hc.k, "patterns": [list(p) for p in hc.sorted_patterns()]}
    return json.dumps(obj, separators=(",", ":")) + "\n"

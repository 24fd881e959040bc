"""Exact-rational certificates for the sharp size bound.

Two certificate styles are produced:

* ``spanning_certificate`` builds the (monomial x pattern) evaluation matrix
  over exact integers and shows the monomial family of bounded high support
  spans all functions on the class (rank == |H|).  The rank is computed mod
  the prime p = 2^61 - 1 first, which is a lower bound on the rank over Q;
  its rows are built as that rank reads them, and it stops at |H|.  The zero
  share of the rows picks a sparse or a dense echelon kernel for it.
  Fraction-free elimination runs only when the two ranks could differ.
  The rows of the lex standard monomials of the class that lie in the basis
  are read first, the other basis rows after them.  The standard rows are
  independent, so when all of them lie in the basis the rank reaches |H|
  after |H| rows, unless p divides their determinant.  The order needs no
  proof: the rank of a set of rows does not depend on the order they are
  read in, so a wrong standard set could cost rows but never change the
  rank.
* ``construct_q`` replays the inductive argument: peel a pattern with a
  deficient direction, interpolate its off-direction indicator on the
  projection recursively, multiply the single-variable correction factor,
  and collect polynomials whose evaluation matrix is unit triangular.  A
  projection with n - 1 <= d is a base case: its off-direction indicator is
  the interpolation indicator of the target itself, taken directly.  It
  raises unless the result passes ``verify_certificate``, the one check of
  a certificate: size bound, peel steps, basis support, triangularity.

Peeling orders (``peeling_order`` and every level of ``construct_q``) are the
traces of the one peel engine, ``dims.max_pseudocube_core``, and the witness
value sets are read from the one line index, ``classes.lines``.  The
verifier re-scans neighbours on its own, so it shares neither.  It checks
basis support with ``_in_basis``, which reads the definition of the
bounded-high set, so neither replay nor verifier enumerates the basis; only
``spanning_certificate`` builds it, through ``monomial_set``.

Polynomials are evaluated by one kernel: the values of a monomial x^e at a
sequence of points are a product of per-coordinate power columns
(``_MonomialColumns``).  The span rank reads its rows from it.  The verifier
builds one table of monomial columns at the ordering per call and checks
integer numerators, a sum of c * column over the terms, against the
denominator; it builds a ``Fraction`` only for a failure message.  Back
substitution in the replay reads the column of a poly above the diagonal
from the same table, computed whole on its first read.
``RationalPolynomial.evaluate`` is the single-point form, kept as a public
method and as the tests' oracle.

Every reported value is exact.  A minor of an integer matrix that is nonzero
mod p is nonzero over Z, so the rank over GF(p) never exceeds the rank over Q;
when it reaches min(rows, columns) it is the rational rank.  A polynomial is
integer numerators over one positive denominator, in lowest terms, from the
Lagrange factor to the verifier; a ``Fraction`` appears only where a rational
value leaves a function.  Certificates are bit-reproducible.

The algebra is needed: the shifting proof of the VC case does not carry over
to DS, as the paper remarks, because down-shifting can raise the DS dimension
({(0,0),(0,2),(1,0),(1,1)} goes from 1 to 2 under ``oig.shift`` along
coordinate 1).  Choosing the shifts does not avoid that: from 36 of the 511
classes at n=2, k=3, ell=1, every sequence of down-shifts that reaches a
downward-closed class passes a class of larger DS dimension than the start.
Order-shattering and the lex game do not prove it either: on
{(0,1),(0,2),(1,0),(1,1),(2,0)}, which meets the bound at d=1, ell=1, the
lex standard monomials under both coordinate orders include x0*x1.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from operator import mul
from typing import Iterable, Optional, Sequence

from .classes import (CapExceeded, DEFAULT_ENUMERATION_CAP, HypothesisClass,
                      Pattern, _class_from_json, lines, serialize_class_json)
from .bounds import ds_sauer_bound, iter_bounded_high_vectors
from .dims import ds_dimension, max_pseudocube_core

ELIMINATION_BIT_CAP = 1_000_000
MODULUS = 2 ** 61 - 1  # a Mersenne prime
_Terms = Iterable[tuple[Pattern, int]]  # (exponent vector, integer numerator) pairs


class PeelingError(RuntimeError):
    """No pattern with a deficient direction exists at some step: the class
    still contains a pseudo-cube on all coordinates, so the requested
    dimension budget is below the true DS dimension."""


def monomial_set(n: int, k: int, ell: int, d: int) -> tuple[Pattern, ...]:
    """The monomial basis: exponent vectors e with 0 <= e_i < k and at most d
    coordinates >= ell, in lexicographic order; its cardinality equals the
    closed-form size bound (asserted)."""
    expected = ds_sauer_bound(n, k, ell, d)
    if expected > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(f"monomial set size {expected} exceeds cap {DEFAULT_ENUMERATION_CAP}")
    exps = tuple(iter_bounded_high_vectors(n, k, ell, d))
    if len(exps) != expected:
        raise AssertionError("monomial count must match the closed form")
    return exps


def _in_basis(exp: Pattern, n: int, k: int, ell: int, d: int) -> bool:
    """Whether ``exp`` is in the monomial basis: n integer exponents in
    [0, k), at most d of them >= ell."""
    return (len(exp) == n and all(isinstance(e, int) and 0 <= e < k for e in exp)
            and sum(e >= ell for e in exp) <= d)


# ---------------------------------------------------------------------------
# Sparse rational polynomials with per-variable degree < k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPolynomial:
    """The polynomial sum(c * x^e for e, c in terms) / den, in lowest terms:
    ``terms`` holds (exponent vector, nonzero integer numerator) pairs sorted
    by exponent vector, and den is positive and coprime to the numerators
    taken together, so equal polynomials compare equal."""

    n: int
    terms: tuple[tuple[Pattern, int], ...]
    den: int

    @classmethod
    def _over(cls, n: int, terms: _Terms, den: int) -> "RationalPolynomial":
        """Numerators of distinct exponent vectors over a nonzero den, in lowest terms."""
        kept = sorted((e, c) for e, c in terms if c)
        g = math.gcd(den, *(c for _, c in kept)) * (1 if den > 0 else -1)
        return cls(n=n, terms=tuple((e, c // g) for e, c in kept), den=den // g)

    @cached_property
    def _factored(self) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
        """Per term, its (variable, positive exponent) pairs and numerator."""
        return tuple((tuple((i, e) for i, e in enumerate(exp) if e), c) for exp, c in self.terms)

    def evaluate(self, point: Pattern) -> Fraction:
        total = 0
        for factors, value in self._factored:
            for i, e in factors:
                x = point[i]
                if not x:
                    break
                value *= x ** e
            else:
                total += value
        return Fraction(total, self.den)


def _poly_mul_univariate(poly: _Terms, var: int, coeffs: list[int]) -> list[tuple[Pattern, int]]:
    """Multiply integer numerators by a univariate polynomial (ascending integer
    coefficients) in a new variable inserted at position ``var``; ``poly``
    lacks that variable, so no two products share an exponent vector."""
    return [(exp[:var] + (e,) + exp[var:], c * u)
            for exp, c in poly for e, u in enumerate(coeffs) if u]


def _lagrange_coeffs(value: int, exclude: tuple[int, ...]) -> tuple[list[int], int]:
    """Ascending integer coefficients of prod_j (x - j), and prod_j (value - j), j in exclude."""
    coeffs, den = [1], 1
    for j in exclude:
        coeffs = [a - j * b for a, b in zip([0] + coeffs, coeffs + [0])]
        den *= value - j
    return coeffs, den


def indicator_poly(h: Pattern, k: int) -> RationalPolynomial:
    """The interpolation indicator of ``h`` on the full cube: value 1 at h and
    0 at every other point of {0..k-1}^n; per-variable degree k - 1."""
    for v in h:
        if not (0 <= v < k):
            raise ValueError(f"entry {v} out of range [0,{k})")
    terms, den = [((), 1)], 1
    for i, hv in enumerate(h):
        coeffs, scale = _lagrange_coeffs(hv, tuple(j for j in range(k) if j != hv))
        terms = _poly_mul_univariate(terms, i, coeffs)
        den *= scale
    return RationalPolynomial._over(len(h), terms, den)


# ---------------------------------------------------------------------------
# Spanning certificate (rank of the monomial evaluation matrix)
# ---------------------------------------------------------------------------

class _MonomialColumns(dict):
    """``self[exp][j]`` is the value of x^exp at ``points[j]``, built on
    first use as a product of per-coordinate power columns, which are built
    once each.  The one evaluation kernel.  The entry is None when a factor
    has no integer value: a negative or non-integer exponent, or a nonzero
    one past coordinate n - 1.  Only a term outside the basis has one."""

    def __init__(self, points: Sequence[Pattern], n: int):
        super().__init__()
        self.points, self.n, self.powers = points, n, {}

    def __missing__(self, exp: Pattern) -> Optional[list[int]]:
        column = [1] * len(self.points)
        for i, e in enumerate(exp):
            if not e:
                continue
            if not (isinstance(e, int) and e > 0 and i < self.n):
                column = None
                break
            power = self.powers.get((i, e))
            if power is None:
                power = self.powers[i, e] = [p[i] ** e for p in self.points]
            column = list(map(mul, column, power))
        self[exp] = column
        return column

    def numerators(self, poly: RationalPolynomial, lo: int, hi: int) -> Optional[list[int]]:
        """The values of ``poly`` times ``poly.den`` at points[lo:hi], or None
        if one of its terms has no value there."""
        columns = [self[exp] for exp, _ in poly.terms]
        if None in columns:
            return None
        if not columns:
            return [0] * (hi - lo)
        return list(map(sum, zip(*(map(mul, column[lo:hi], repeat(c))
                                   for column, (_, c) in zip(columns, poly.terms)))))


@dataclass(frozen=True)
class SpanReport:
    rank: int
    spans: bool
    monomial_count: int
    class_size: int


def rank_bareiss(rows: list[list[int]]) -> int:
    """Rank by fraction-free (division-free until exact) elimination with
    first-nonzero pivoting.  Intermediate growth beyond
    ``ELIMINATION_BIT_CAP`` bits raises instead of silently degrading."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    bit_cap = ELIMINATION_BIT_CAP
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, ncols):
                num = row_i[j] * pivot - mic * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                if q.bit_length() > bit_cap:
                    raise CapExceeded(f"entry exceeded {bit_cap} bits during elimination")
                row_i[j] = q
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def rank_mod_p(rows: Iterable[list[int]]) -> int:
    """Rank over GF(MODULUS), a lower bound on the rank over Q.

    Stops reading rows once the rank reaches the column count, so rows
    produced lazily past that point are never built; short of it, every row
    is read.  The first rows, as many as there are columns, are read before
    any is reduced: the rank cannot reach the column count sooner, so this
    reads no row the stop would have spared.  Their zero share picks the
    kernel, and both compute the same rank, because the rank mod p of a set
    of rows depends on neither the basis kept nor the order of the rows.

    * At a zero share of 1/3 or more, ``_rank_sparse``, an echelon form
      whose basis rows hold only their nonzero residues, reading the first
      rows sparsest first (ties in the given order) and the rest as given.
    * Below it, ``_rank_dense``, a reduced echelon form with a dot product
      per free column, reading the rows as given.

    The crossover was measured on the span matrices of 32 classes, rank
    only, best of 3 (2-core x86-64, Python 3.11.7).  From a zero share of
    0.35 up, the sparse kernel lost by at most 6% and mostly won by far: 2.8
    against 7.8 ms at share 0.62 (the benchmark's 90-point span cell), 20
    against 819 ms on the 512 points of extremal(5,4,2,2) at 0.74.  Below
    1/3 it won by up to 1.9x on random classes, but lost by up to 2.5x where
    zeros are rare (share 0.13-0.28) and by up to 3.9x on zero-free classes.
    Reading rows sparsest first would cost the dense kernel up to 2.9x on
    those, so only the sparse kernel reorders them.
    """
    rows = iter(rows)
    first = next(rows, None)
    if not first:
        return 0
    ncols = len(first)
    head = [first, *islice(rows, ncols - 1)]
    zeros = [row.count(0) for row in head]
    if 3 * sum(zeros) < len(head) * ncols:
        return _rank_dense(chain(head, rows), ncols)
    order = sorted(range(len(head)), key=zeros.__getitem__, reverse=True)
    return _rank_sparse(chain((head[i] for i in order), rows), ncols)


def _rank_dense(rows: Iterable[list[int]], ncols: int) -> int:
    """Rank mod p of rows of length ``ncols``, read until it reaches ncols.

    Keeps the rows read so far as a reduced echelon basis stored by column:
    ``neg[f][j]`` is minus the entry of basis row j in the free (non-pivot)
    column f, so reducing a row is one dot product per free column.
    """
    pivots: list[int] = []
    neg = {f: [] for f in range(ncols)}
    for row in rows:
        coeffs = [row[c] for c in pivots]
        reduced = {f: (row[f] + sum(map(mul, coeffs, col))) % MODULUS
                   for f, col in neg.items()}
        pivot = next((f for f, v in reduced.items() if v), None)
        if pivot is None:
            continue
        inv = pow(reduced.pop(pivot), -1, MODULUS)
        # clear the new pivot column from the old basis rows
        above = [-x % MODULUS for x in neg.pop(pivot)]
        for f, v in reduced.items():
            b = v * inv % MODULUS
            if b:
                neg[f] = [(x + a * b) % MODULUS for x, a in zip(neg[f], above)]
            neg[f].append(-b % MODULUS)
        pivots.append(pivot)
        if not neg:
            break
    return len(pivots)


def _rank_sparse(rows: Iterable[list[int]], ncols: int) -> int:
    """Rank mod p of rows of length ``ncols``, read until it reaches ncols.

    Keeps the rows read so far in echelon form: ``basis[c]`` is the basis
    row whose pivot, its smallest nonzero column, is c, scaled to 1 there,
    as a {column: residue} dict of its nonzero entries right of c.  A new
    row is reduced smallest live column first, only until that column is
    not yet a pivot, where it becomes one.  An entry of the working row is
    reduced mod p only when it is read, so a product from a basis row costs
    one multiply and one subtraction.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        row = list(row)
        # the iterator reads each entry after the subtractions left of it
        for c, v in enumerate(row):
            if v and (v := v % MODULUS):
                above = basis.get(c)
                if above is None:
                    inv = pow(v, -1, MODULUS)
                    basis[c] = {j: y for j, x in enumerate(row[c + 1:], c + 1)
                                if x and (y := x * inv % MODULUS)}
                    break
                for j, x in above.items():
                    row[j] -= v * x
        if len(basis) == ncols:
            break
    return len(basis)


def exact_rank(rows: Iterable[list[int]]) -> int:
    """Rank over Q of an integer matrix given by its rows, which may be
    produced lazily.  The rank mod p is exact when it reaches min(rows,
    columns); otherwise ``rank_bareiss`` decides on the rows read.  Short of
    the column count, ``rank_mod_p`` has read every row."""
    read: list[list[int]] = []

    def reading():
        for row in rows:
            read.append(row)
            yield row

    rank = rank_mod_p(reading())
    if not read or rank in (len(read), len(read[0])):
        return rank
    return rank_bareiss(read)


def lex_standard_monomials(h: HypothesisClass) -> list[Pattern]:
    """The lex standard monomials of the point set ``h``, coordinate 0 the
    most significant variable, in lex order: the exponent vectors whose
    evaluation rows greedy elimination keeps when it reads them in the
    order of ``monomial_set``.  Their rows are a basis of the functions on h.

    Cerlienco-Mureddu fibre recursion: x0^a * m is standard on h iff m is
    standard on h_a, the projections off coordinate 0 whose fibre in h holds
    more than a patterns.  The h_a nest and their sizes add up to |h|, so
    each coordinate costs O(|h|) fibre counts.  The recursion runs as a loop
    over the coordinates, one level of (exponent prefix, members) at a time,
    so its call depth does not grow with n.
    """
    pats = list(h.patterns)
    # tails[j][i] names pats[j][i:]: equal names, equal suffixes
    names: dict[tuple[int, int], int] = {}
    tails = []
    for p in pats:
        tail = [0] * (h.n + 1)
        for i in range(h.n - 1, -1, -1):
            tail[i] = names.setdefault((p[i], tail[i + 1]), len(names) + 1)
        tails.append(tail)
    # an exponent prefix is a linked list (last exponent, rest), so extending
    # one is O(1); members are one pattern per distinct suffix at this level
    level = [(None, range(len(pats)))]
    for i in range(1, h.n + 1):
        deeper = []
        for prefix, members in level:
            fibres = defaultdict(list)
            for j in members:
                fibres[tails[j][i]].append(j)
            groups, a = list(fibres.values()), 0
            while groups:
                deeper.append(((a, prefix), [g[0] for g in groups]))
                a += 1
                groups = [g for g in groups if len(g) > a]
        level = deeper
    standard = []
    for prefix, _ in level:
        exp = []
        while prefix is not None:
            a, prefix = prefix
            exp.append(a)
        standard.append(tuple(reversed(exp)))
    return standard


def spanning_certificate(h: HypothesisClass, ell: int, d: int,
                         check_dim: bool = True) -> SpanReport:
    """Rank over Q of the (monomial x pattern) integer evaluation matrix.
    ``spans`` is true iff the rank equals |H|, which is the content of the
    sharp size bound whenever d is at least the DS dimension of h.

    The rank mod p = 2^61 - 1 is a lower bound on the rational rank, because
    a minor that is nonzero mod p is nonzero over Z.  It is returned when it
    equals min(monomials, |H|); only a shortfall runs fraction-free
    elimination, so the reported rank is exact either way.

    The rows are read in two groups, each in ``monomial_set`` order: the
    basis monomials that are lex standard on h (``lex_standard_monomials``),
    then the rest.  The standard rows are a basis of the functions on h, so
    when every standard monomial lies in the basis the rank mod p reaches
    |H| on them alone, unless p divides their determinant, and no dependent
    row is reduced.  Otherwise the other rows follow.  Either way the rank
    is the rank of all the rows, which does not depend on their order.

    The point columns are ordered by zero count, most zeros first (ties in
    lex order); the rank does not depend on the column order either.  A
    monomial vanishes at every point where one of its variables is 0, so
    these columns are the sparsest, and the sparse kernel of ``rank_mod_p``
    takes its pivots there first, which keeps its basis rows sparse.  On
    the dense kernel this order moved the time by -15% to +7% over the
    classes measured for ``rank_mod_p``.
    """
    if h.is_empty:
        raise ValueError("cannot certify the empty class")
    if check_dim:
        true_d = ds_dimension(h, ell).value
        if d < true_d:
            raise ValueError(f"d={d} is below the DS dimension {true_d}; "
                             "the certificate would be meaningless")
    exponents = monomial_set(h.n, h.k, ell, d)
    standard = set(lex_standard_monomials(h))
    pats = sorted(h.sorted_patterns(), key=lambda p: p.count(0), reverse=True)
    columns = _MonomialColumns(pats, h.n)

    def rows():
        # built on demand: the rank mod p stops reading at |H|, which the
        # standard rows reach alone when all of them lie in the basis
        for exp in sorted(exponents, key=lambda e: e not in standard):
            yield columns[exp]

    rank = exact_rank(rows())
    return SpanReport(rank=rank, spans=rank == len(pats),
                      monomial_count=len(exponents), class_size=len(pats))


# ---------------------------------------------------------------------------
# Peeling orders and the triangular Q construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Peeling certificate for a class.

    ``ordering`` lists all patterns; ``witnesses[t]`` is (direction, neighbor
    value set) for peeled steps and None for base-case (n == d) entries.
    ``q_polys[s]``, when present, is the basis polynomial of step s: it is 1
    at ``ordering[s]`` and 0 at every later pattern, which
    ``verify_certificate`` checks.
    """

    n: int
    k: int
    ell: int
    d: int
    ordering: tuple[Pattern, ...]
    witnesses: tuple[Optional[tuple[int, tuple[int, ...]]], ...]
    q_polys: Optional[tuple[RationalPolynomial, ...]] = None


def _peel(h: HypothesisClass, ell: int):
    """(ordering, witnesses) of the peel of ``h`` to an empty core: at each
    step, the direction and the values of the line members peeled later."""
    report = max_pseudocube_core(h, ell + 1)
    if not report.core.is_empty:
        raise PeelingError(
            f"no deficient pattern among {len(report.core)} remaining: the class "
            f"contains an {ell + 1}-pseudo-cube on all {h.n} coordinates")
    step = {p: t for t, (p, _) in enumerate(report.peel_trace)}
    index = lines(h.patterns, range(h.n))
    witnesses = tuple(
        (i, tuple(sorted(q[i] for q in index[(i, p[:i] + p[i + 1:])] if step[q] > t)))
        for t, (p, i) in enumerate(report.peel_trace))
    return tuple(p for p, _ in report.peel_trace), witnesses


def peeling_order(h: HypothesisClass, ell: int, d: int) -> Certificate:
    """Order the class so each pattern has fewer than ell neighbors in its
    witnessed direction within the remainder.  Requires n > d; gets stuck
    (and raises) exactly when some remainder is an (ell+1)-pseudo-cube on all
    coordinates, which cannot happen if d bounds the DS dimension."""
    if h.is_empty:
        raise ValueError("cannot order the empty class")
    if not (0 <= d < h.n):
        raise ValueError(f"peeling requires 0 <= d < n, got d={d}, n={h.n}")
    ordering, witnesses = _peel(h, ell)
    return Certificate(n=h.n, k=h.k, ell=ell, d=d,
                       ordering=ordering, witnesses=witnesses)


def construct_q(h: HypothesisClass, ell: int, d: int) -> Certificate:
    """Replay the inductive construction of the basis polynomials.

    Base case n == d: interpolation indicators of the patterns.  Otherwise
    peel a deficient (pattern, direction), build the off-direction indicator
    on the projection by recursing with the same budget, and multiply the
    deficiency correction factor, whose degree in the witnessed variable
    stays below ell.  The result is checked by ``verify_certificate``, the
    one certificate check; a failure raises AssertionError with its first
    message.
    """
    if h.is_empty:
        raise ValueError("cannot certify the empty class")
    if not (0 <= d <= h.n):
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={h.n}")
    if not (1 <= ell <= h.k):
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={h.k}")
    if h.n <= d:
        ordering = tuple(h.sorted_patterns())
        witnesses = (None,) * len(ordering)
        polys = tuple(indicator_poly(p, h.k) for p in ordering)
    else:
        ordering, witnesses, polys, _ = _construct(h, ell, d, {}, {})
    cert = Certificate(n=h.n, k=h.k, ell=ell, d=d, ordering=ordering,
                       witnesses=witnesses, q_polys=polys)
    report = verify_certificate(cert, h)
    if not report.ok:
        raise AssertionError(f"replayed certificate fails: {report.failures[0]}")
    return cert


def _construct(h: HypothesisClass, ell: int, d: int, memo: dict,
               indicators: dict[Pattern, RationalPolynomial]):
    """The peel of ``h``, which needs n > d, and its basis polynomials:
    returns (ordering, witnesses, polys, entries), with ``entries`` the
    ``_LazyValues`` of the polys.  Memoized per class, so repeated
    projections are certified once, and ``indicators`` holds the
    interpolation indicators per pattern."""
    key = (h.n, h.k, ell, d, h.patterns)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ordering, witnesses = _peel(h, ell)
    polys: list[RationalPolynomial] = []
    for t, (p, (i, values)) in enumerate(zip(ordering, witnesses)):
        target = p[:i] + p[i + 1:]
        if h.n - 1 <= d:
            # the projection is a base case: its basis polynomials are the
            # interpolation indicators, whose evaluation matrix is the
            # identity, so the indicator of the target is its own
            base = indicators.get(target)
            if base is None:
                base = indicators[target] = indicator_poly(target, h.k)
        else:
            proj = HypothesisClass(h.n - 1, h.k,
                                   frozenset(q[:i] + q[i + 1:] for q in ordering[t:]))
            sub_order, _, sub_polys, sub_entries = _construct(proj, ell, d, memo, indicators)
            base = _indicator_on_class(sub_order, sub_polys, sub_entries, target)
        factor, scale = _lagrange_coeffs(p[i], values)
        polys.append(RationalPolynomial._over(h.n, _poly_mul_univariate(base.terms, i, factor),
                                              base.den * scale))
    polys = tuple(polys)
    result = (ordering, witnesses, polys, _LazyValues(ordering, polys, h.n))
    memo[key] = result
    return result


class _LazyValues(dict):
    """``entries[s][t]`` is the value of polys[s] at ordering[t] for t < s:
    the column of poly s above the diagonal, computed whole on its first
    read from one monomial-column table of the ordering."""

    def __init__(self, ordering: tuple[Pattern, ...],
                 polys: tuple[RationalPolynomial, ...], n: int):
        super().__init__()
        self.polys, self.columns = polys, _MonomialColumns(ordering, n)

    def __missing__(self, s: int) -> list[Fraction]:
        q = self.polys[s]
        column = self[s] = [Fraction(v, q.den) for v in self.columns.numerators(q, 0, s)]
        return column


def _indicator_on_class(ordering: tuple[Pattern, ...],
                        polys: tuple[RationalPolynomial, ...],
                        entries: _LazyValues, target: Pattern) -> RationalPolynomial:
    """Combine basis polynomials into the indicator of ``target`` on the
    class they certify, via back substitution against the unit-triangular
    evaluation matrix, with numerators over the lcm of the denominators.
    It reads ``entries[s]`` only where the coefficient of poly s is
    nonzero."""
    size = len(ordering)
    coeff: list[Fraction] = [0] * size
    for t in range(size - 1, -1, -1):
        acc = int(ordering[t] == target)
        for s in range(t + 1, size):
            if coeff[s]:
                acc -= entries[s][t] * coeff[s]
        coeff[t] = acc
    used = [(c, q) for c, q in zip(coeff, polys) if c]
    den = math.lcm(*(c.denominator * q.den for c, q in used))
    combined: dict[Pattern, int] = {}
    for c, q in used:
        scale = c.numerator * (den // (c.denominator * q.den))
        for exp, u in q.terms:
            combined[exp] = combined.get(exp, 0) + scale * u
    return RationalPolynomial._over(len(target), combined.items(), den)


# ---------------------------------------------------------------------------
# Certificate serialization and independent re-checking
# ---------------------------------------------------------------------------

def serialize_certificate(cert: Certificate, h: HypothesisClass) -> str:
    """Self-contained JSON: the class, the ordering as indices into its
    canonical pattern order, per-step witnesses, optional polynomial terms."""
    pats = h.sorted_patterns()
    index = {p: i for i, p in enumerate(pats)}
    obj = {
        "class": json.loads(serialize_class_json(h)),
        "ell": cert.ell,
        "d": cert.d,
        "ordering": [index[p] for p in cert.ordering],
        "witnesses": [None if w is None else {"direction": w[0], "values": list(w[1])}
                      for w in cert.witnesses],
    }
    if cert.q_polys is not None:
        # each term in lowest terms: den > 0, so this is the Fraction's form
        obj["q_polys"] = [[[list(exp), c // g, q.den // g]
                           for exp, c in q.terms for g in (math.gcd(c, q.den),)]
                          for q in cert.q_polys]
    return json.dumps(obj, separators=(",", ":")) + "\n"


def load_certificate(text: str) -> tuple[Certificate, HypothesisClass]:
    """Parse a serialized certificate, checking every field before it is used.

    Malformed input (invalid JSON, a missing field, a wrong type, an index or
    a value out of range, an empty class) raises ValueError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid certificate JSON: {exc.msg} at line {exc.lineno} "
                         f"column {exc.colno}") from None
    except RecursionError:
        raise ValueError("invalid certificate JSON: nested too deeply") from None
    if not isinstance(obj, dict) or not obj.keys() >= {"class", "ell", "d", "ordering",
                                                       "witnesses"}:
        raise ValueError("certificate needs the fields class, ell, d, ordering, witnesses")
    h = _class_from_json(obj["class"])
    if h.is_empty:
        raise ValueError("certificate class is empty")
    pats = h.sorted_patterns()
    witnesses = tuple(None if w is None else _witness(w, h) for w in _list(obj["witnesses"]))
    q_polys = None
    if "q_polys" in obj:
        q_polys = []
        for terms in _list(obj["q_polys"]):
            parsed: dict[Pattern, tuple[int, int]] = {}
            for term in _list(terms):
                if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
                    raise ValueError(f"term {term!r} is not [exponents, numerator, denominator]")
                exp = _ints(term[0], 0, h.k)
                if len(exp) != h.n or exp in parsed:
                    raise ValueError(f"exponent vector {exp} has the wrong length or repeats")
                parsed[exp] = term[1], _int(term[2], 1)
            den = math.lcm(*(b for _, b in parsed.values()))
            q_polys.append(RationalPolynomial._over(
                h.n, ((e, a * (den // b)) for e, (a, b) in parsed.items()), den))
        q_polys = tuple(q_polys)
    cert = Certificate(n=h.n, k=h.k, ell=_int(obj["ell"], 1, h.k + 1),
                       d=_int(obj["d"], 0, h.n + 1),
                       ordering=tuple(map(pats.__getitem__,
                                          _ints(obj["ordering"], 0, len(pats)))),
                       witnesses=witnesses, q_polys=q_polys)
    return cert, h


def _witness(w, h: HypothesisClass) -> tuple[int, tuple[int, ...]]:
    if not isinstance(w, dict) or w.keys() != {"direction", "values"}:
        raise ValueError(f"witness {w!r} is not null or a direction and values")
    return _int(w["direction"], 0, h.n), _ints(w["values"], 0, h.k)


def _int(value, lo: int, hi: Optional[int] = None) -> int:
    """``value`` if it is an int (not a bool) within [lo, hi), else ValueError."""
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise ValueError(f"expected an integer in [{lo},{hi}), got {value!r}")
    return value


def _ints(values, lo: int, hi: int) -> tuple[int, ...]:
    """The list ``values`` as a tuple if every value is an int (not a bool)
    within [lo, hi), checked in bulk; else the ValueError ``_int`` raises
    for the first value that is not."""
    values = _list(values)
    if (set(map(type, values)) <= {int} and min(values, default=lo) >= lo
            and max(values, default=lo) < hi):
        return tuple(values)
    return tuple(_int(v, lo, hi) for v in values)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[str, ...]


def verify_certificate(cert: Certificate, h: HypothesisClass) -> VerifyReport:
    """Re-check a certificate without re-deriving it.

    Validates that the class size is within ds_sauer_bound(n, k, ell, d), the
    ordering is a permutation of the class, each witnessed step is deficient
    within its suffix with the recorded value set, and (when polynomials are
    present) that every term lies in the bounded-high basis and that poly s
    is exactly 1 at pattern s and 0 at every later pattern t, so the
    evaluation matrix is unit triangular.  Only these entries (t >= s) are
    computed, as integer numerators over the poly's denominator from one
    table of monomial columns at the ordering.  This is the one certificate
    check; ``construct_q`` runs it on what it replays.

    Only the polynomials prove the size bound.  A peeling order alone shows
    only that no (ell+1)-pseudo-cube spans all n coordinates.
    """
    failures: list[str] = []
    bound = ds_sauer_bound(h.n, h.k, cert.ell, cert.d)
    if len(h) > bound:
        failures.append(f"class size {len(h)} exceeds the bound {bound} at "
                        f"ell={cert.ell}, d={cert.d}")
    if set(cert.ordering) != h.patterns or len(cert.ordering) != len(h):
        failures.append("ordering is not a permutation of the class")
    if len(cert.witnesses) != len(cert.ordering):
        failures.append("witness count differs from ordering length")
    for t, (p, w) in enumerate(zip(cert.ordering, cert.witnesses)):
        if w is None:
            if cert.n != cert.d:
                failures.append(f"step {t}: missing witness with n > d")
            continue
        i, values = w
        suffix = cert.ordering[t:]
        neighbors = sorted(q[i] for q in suffix
                           if q != p and q[:i] + q[i + 1:] == p[:i] + p[i + 1:])
        if len(values) >= cert.ell:
            failures.append(f"step {t}: witness set size {len(values)} not below ell")
        if tuple(neighbors) != tuple(values):
            failures.append(f"step {t}: recorded values {values} differ from "
                            f"actual neighbors {tuple(neighbors)}")
    if cert.q_polys is not None:
        if len(cert.q_polys) != len(cert.ordering):
            failures.append("polynomial count differs from ordering length")
        in_basis: dict[Pattern, bool] = {}
        for s, q in enumerate(cert.q_polys):
            for exp, _ in q.terms:
                inside = in_basis.get(exp)
                if inside is None:
                    inside = in_basis[exp] = _in_basis(exp, h.n, h.k, cert.ell, cert.d)
                if not inside:
                    failures.append(f"poly {s}: monomial {exp} outside the basis")
                    break
        failures.extend(_triangle_failures(cert.ordering, cert.q_polys, h.n))
    return VerifyReport(ok=not failures, failures=tuple(failures))


def _triangle_failures(ordering: tuple[Pattern, ...],
                       polys: tuple[RationalPolynomial, ...], n: int) -> list[str]:
    """The entries (t, s), t >= s, where poly s is not 1 on the diagonal or
    not 0 below it, in the order of t and then s.  Poly s passes when its
    numerators at ordering[s:] are its den and then zeros; only a failing
    poly's entries are walked, and a ``Fraction`` is built only for a
    message.  A poly with a term that has no value at the patterns, which
    lies outside the basis, has no entries to report."""
    size = len(ordering)
    columns = _MonomialColumns(ordering, n)
    failing = []
    for s, q in enumerate(polys[:size]):
        values = columns.numerators(q, s, size)
        if values is not None and (values[0] != q.den or not q.den or any(values[1:])):
            failing.append((s, q.den, values))
    failures = []
    for t in range(size):
        for s, den, values in failing:
            if s > t:
                break
            v = values[t - s]
            if (v != den or not den) if t == s else v:
                value = Fraction(v, den) if den else f"{v}/0"
                failures.append(f"diagonal ({t},{s}) is {value}, expected 1" if t == s
                                else f"entry ({t},{s}) is {value}, expected 0")
    return failures

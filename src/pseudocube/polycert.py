"""Exact-rational certificates for the sharp size bound.

Two certificate styles are produced:

* ``spanning_certificate`` builds the (monomial x pattern) evaluation matrix
  over exact integers and shows the monomial family of bounded high support
  spans all functions on the class (rank == |H|).  The rank is computed mod
  the prime p = 2^61 - 1 first, which is a lower bound on the rank over Q;
  fraction-free elimination runs only when the two could differ.
* ``construct_q`` replays the inductive argument: peel a pattern with a
  deficient direction, interpolate its off-direction indicator on the
  projection recursively, multiply the single-variable correction factor,
  and collect polynomials whose evaluation matrix is unit triangular.

Peeling orders (``peeling_order`` and every level of ``construct_q``) are the
traces of the one peel engine, ``dims.max_pseudocube_core``, and the witness
value sets are read from the one line index, ``classes.lines``.  The
verifier re-scans neighbours on its own, so it shares neither.

Every reported value is exact.  A minor of an integer matrix that is nonzero
mod p is nonzero over Z, so the rank over GF(p) never exceeds the rank over Q;
when it reaches min(rows, columns) it is the rational rank.  Polynomials keep
rational coefficients and evaluate over their common denominator in integer
arithmetic.  Certificates are bit-reproducible.

The algebra is needed: the shifting proof of the VC case does not carry over
to DS, as the paper remarks, because down-shifting can raise the DS dimension
({(0,0),(0,2),(1,0),(1,1)} goes from 1 to 2 under ``oig.shift`` along
coordinate 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional

from .classes import (CapExceeded, DEFAULT_ENUMERATION_CAP, HypothesisClass,
                      Pattern, lines, parse_class_json, serialize_class_json)
from .bounds import ds_sauer_bound, iter_bounded_high_vectors
from .dims import ds_dimension, max_pseudocube_core

ELIMINATION_BIT_CAP = 1_000_000
MODULUS = 2 ** 61 - 1  # a Mersenne prime


class PeelingError(RuntimeError):
    """No pattern with a deficient direction exists at some step: the class
    still contains a pseudo-cube on all coordinates, so the requested
    dimension budget is below the true DS dimension."""


@dataclass(frozen=True)
class MonomialSet:
    """Exponent vectors e with 0 <= e_i < k and at most d coordinates >= ell."""

    n: int
    k: int
    ell: int
    d: int
    exponents: tuple[Pattern, ...]


def monomial_set(n: int, k: int, ell: int, d: int,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> MonomialSet:
    """Enumerate the monomial basis; its cardinality equals the closed-form
    size bound (asserted)."""
    expected = ds_sauer_bound(n, k, ell, d)
    if expected > cap:
        raise CapExceeded(f"monomial set size {expected} exceeds cap {cap}")
    exps = tuple(iter_bounded_high_vectors(n, k, ell, d))
    if len(exps) != expected:
        raise AssertionError("monomial count must match the closed form")
    return MonomialSet(n=n, k=k, ell=ell, d=d, exponents=exps)


# ---------------------------------------------------------------------------
# Sparse rational polynomials with per-variable degree < k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPolynomial:
    """Terms map exponent vectors to nonzero rational coefficients."""

    n: int
    terms: tuple[tuple[Pattern, Fraction], ...]

    @classmethod
    def from_dict(cls, n: int, terms: dict[Pattern, Fraction]) -> "RationalPolynomial":
        kept = tuple(sorted((e, c) for e, c in terms.items() if c != 0))
        return cls(n=n, terms=kept)

    @cached_property
    def _over_denominator(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], int], ...]]:
        """(den, terms): the least common denominator of the coefficients and,
        per term, its (variable, positive exponent) pairs and the integer
        numerator of its coefficient over den."""
        den = math.lcm(*(c.denominator for _, c in self.terms))
        return den, tuple((tuple((i, e) for i, e in enumerate(exp) if e),
                           c.numerator * (den // c.denominator))
                          for exp, c in self.terms)

    def evaluate(self, point: Pattern) -> Fraction:
        den, terms = self._over_denominator
        total = 0
        for factors, value in terms:
            for i, e in factors:
                x = point[i]
                if not x:
                    break
                value *= x ** e
            else:
                total += value
        return Fraction(total, den)

    def variable_degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for exp, _ in self.terms:
            for i, e in enumerate(exp):
                if e > degs[i]:
                    degs[i] = e
        return tuple(degs)


def _poly_mul_univariate(poly: dict[Pattern, Fraction], var: int,
                         coeffs: list[Fraction]) -> dict[Pattern, Fraction]:
    """Multiply a term dict by a univariate polynomial in ``var`` given by
    ascending coefficients."""
    out: dict[Pattern, Fraction] = {}
    for exp, c in poly.items():
        for e, u in enumerate(coeffs):
            if u == 0:
                continue
            new = exp[:var] + (exp[var] + e,) + exp[var + 1:]
            out[new] = out.get(new, Fraction(0)) + c * u
    return {e: c for e, c in out.items() if c != 0}


def _lagrange_coeffs(value: int, exclude: tuple[int, ...]) -> list[Fraction]:
    """Ascending coefficients of prod_{j in exclude} (x - j) / (value - j)."""
    coeffs = [Fraction(1)]
    for j in exclude:
        scale = Fraction(1, value - j)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e + 1] += c * scale
            nxt[e] -= c * j * scale
        coeffs = nxt
    return coeffs


def indicator_poly(h: Pattern, k: int) -> RationalPolynomial:
    """The interpolation indicator of ``h`` on the full cube: value 1 at h and
    0 at every other point of {0..k-1}^n; per-variable degree k - 1."""
    n = len(h)
    for v in h:
        if not (0 <= v < k):
            raise ValueError(f"entry {v} out of range [0,{k})")
    terms: dict[Pattern, Fraction] = {(0,) * n: Fraction(1)}
    for i, hv in enumerate(h):
        others = tuple(j for j in range(k) if j != hv)
        terms = _poly_mul_univariate(terms, i, _lagrange_coeffs(hv, others))
    return RationalPolynomial.from_dict(n, terms)


# ---------------------------------------------------------------------------
# Spanning certificate (rank of the monomial evaluation matrix)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanReport:
    rank: int
    spans: bool
    monomial_count: int
    class_size: int


def rank_bareiss(rows: list[list[int]], bit_cap: int = ELIMINATION_BIT_CAP) -> int:
    """Rank by fraction-free (division-free until exact) elimination with
    first-nonzero pivoting.  Intermediate growth beyond ``bit_cap`` bits
    raises instead of silently degrading."""
    m = [list(r) for r in rows]
    if not m:
        return 0
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


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over GF(MODULUS), a lower bound on the rank over Q.

    Keeps the rows read so far as a reduced echelon basis stored by column:
    ``neg[f][j]`` is minus the entry of basis row j in the free (non-pivot)
    column f, so reducing a row is one dot product per free column.  Stops
    reading rows once the rank reaches the column count.
    """
    if not rows:
        return 0
    pivots: list[int] = []
    neg: dict[int, list[int]] = {f: [] for f in range(len(rows[0]))}
    for row in rows:
        if not neg:
            break
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
    return len(pivots)


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix.  The rank mod p is exact when it
    reaches min(rows, columns); otherwise ``rank_bareiss`` decides."""
    rank = rank_mod_p(rows)
    if not rows or rank == min(len(rows), len(rows[0])):
        return rank
    return rank_bareiss(rows)


def spanning_certificate(h: HypothesisClass, ell: int, d: int,
                         check_dim: bool = True) -> SpanReport:
    """Rank over Q of the (monomial x pattern) integer evaluation matrix.
    ``spans`` is true iff the rank equals |H|, which is the content of the
    sharp size bound whenever d is at least the DS dimension of h.

    The rank mod p = 2^61 - 1 is a lower bound on the rational rank, because
    a minor that is nonzero mod p is nonzero over Z.  It is returned when it
    equals min(monomials, |H|); only a shortfall runs fraction-free
    elimination, so the reported rank is exact either way.
    """
    if h.is_empty:
        raise ValueError("cannot certify the empty class")
    if check_dim:
        true_d = ds_dimension(h, ell).value
        if d < true_d:
            raise ValueError(f"d={d} is below the DS dimension {true_d}; "
                             "the certificate would be meaningless")
    mono = monomial_set(h.n, h.k, ell, d)
    pats = h.sorted_patterns()
    # powers[i][e][j] is the i-th coordinate of pattern j to the e-th power
    powers = [[[p[i] ** e for p in pats] for e in range(h.k)] for i in range(h.n)]
    rows = []
    for exp in mono.exponents:
        row = [1] * len(pats)
        for i, e in enumerate(exp):
            if e:
                row = list(map(mul, row, powers[i][e]))
        rows.append(row)
    rank = exact_rank(rows)
    return SpanReport(rank=rank, spans=rank == len(pats),
                      monomial_count=len(mono.exponents), class_size=len(pats))


# ---------------------------------------------------------------------------
# Peeling orders and the triangular Q construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Peeling certificate for a class.

    ``ordering`` lists all patterns; ``witnesses[t]`` is (direction, neighbor
    value set) for peeled steps and None for base-case (n == d) entries.
    When polynomials are present, ``eval_matrix[i][j]`` holds the value of the
    j-th polynomial at the i-th pattern, so A[i][i] == 1 and A[i][j] == 0 for
    i > j, exactly.
    """

    n: int
    k: int
    ell: int
    d: int
    ordering: tuple[Pattern, ...]
    witnesses: tuple[Optional[tuple[int, tuple[int, ...]]], ...]
    q_polys: Optional[tuple[RationalPolynomial, ...]] = None
    eval_matrix: Optional[tuple[tuple[Fraction, ...], ...]] = None


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
    stays below ell.  The resulting evaluation matrix is unit triangular and
    every polynomial is supported on the bounded-high monomial basis.
    """
    if h.is_empty:
        raise ValueError("cannot certify the empty class")
    if not (0 <= d <= h.n):
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={h.n}")
    if not (1 <= ell <= h.k):
        raise ValueError(f"need 1 <= ell <= k, got ell={ell}, k={h.k}")
    ordering, witnesses, polys, rows = _construct(h, ell, d, {}, {})
    matrix = tuple(tuple(row) for row in rows)
    for i in range(len(ordering)):
        if matrix[i][i] != 1:
            raise AssertionError(f"diagonal entry {i} is {matrix[i][i]}, expected 1")
        for j in range(i):
            if matrix[i][j] != 0:
                raise AssertionError(f"entry ({i},{j}) is {matrix[i][j]}, expected 0")
    allowed = set(monomial_set(h.n, h.k, ell, d).exponents)
    for q in polys:
        for exp, _ in q.terms:
            if exp not in allowed:
                raise AssertionError(f"monomial {exp} escapes the bounded-high basis")
    return Certificate(n=h.n, k=h.k, ell=ell, d=d, ordering=ordering,
                       witnesses=witnesses, q_polys=polys, eval_matrix=matrix)


def _construct(h: HypothesisClass, ell: int, d: int, memo: dict,
               indicators: dict[Pattern, RationalPolynomial]):
    """Returns (ordering, witnesses, polys, rows) with rows[t][s] the value of
    poly s at pattern t; memoized per class so repeated projections are
    certified once, and the base-case indicators per pattern."""
    key = (h.n, h.k, ell, d, h.patterns)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if h.n <= d:
        ordering = tuple(h.sorted_patterns())
        for p in ordering:
            if p not in indicators:
                indicators[p] = indicator_poly(p, h.k)
        polys = tuple(indicators[p] for p in ordering)
        rows = [[Fraction(int(t == s)) for s in range(len(ordering))]
                for t in range(len(ordering))]
        result = (ordering, (None,) * len(ordering), polys, rows)
        memo[key] = result
        return result
    ordering, witnesses = _peel(h, ell)
    polys: list[RationalPolynomial] = []
    for t, (p, (i, values)) in enumerate(zip(ordering, witnesses)):
        if h.n == 1:
            # the projection off the only coordinate is zero-dimensional, so
            # the off-direction indicator degenerates to the constant 1
            base = RationalPolynomial.from_dict(0, {(): Fraction(1)})
        else:
            proj = HypothesisClass(h.n - 1, h.k,
                                   frozenset(q[:i] + q[i + 1:] for q in ordering[t:]))
            sub_order, _, sub_polys, sub_rows = _construct(proj, ell, d, memo, indicators)
            target = p[:i] + p[i + 1:]
            base = _indicator_on_class(sub_order, sub_polys, sub_rows, target)
        lifted: dict[Pattern, Fraction] = {
            exp[:i] + (0,) + exp[i:]: c for exp, c in base.terms}
        factor = _lagrange_coeffs(p[i], values) if values else [Fraction(1)]
        q_terms = _poly_mul_univariate(lifted, i, factor)
        polys.append(RationalPolynomial.from_dict(h.n, q_terms))
    rows = [[q.evaluate(p) for q in polys] for p in ordering]
    result = (ordering, witnesses, tuple(polys), rows)
    memo[key] = result
    return result


def _indicator_on_class(ordering: tuple[Pattern, ...],
                        polys: tuple[RationalPolynomial, ...],
                        rows: list[list[Fraction]],
                        target: Pattern) -> RationalPolynomial:
    """Combine basis polynomials into the indicator of ``target`` on the
    class they certify, via back substitution against the unit-triangular
    evaluation matrix."""
    size = len(ordering)
    rhs = [Fraction(1) if p == target else Fraction(0) for p in ordering]
    coeff = [Fraction(0)] * size
    for t in range(size - 1, -1, -1):
        acc = rhs[t]
        row = rows[t]
        for s in range(t + 1, size):
            if coeff[s]:
                acc -= row[s] * coeff[s]
        coeff[t] = acc
    combined: dict[Pattern, Fraction] = {}
    for c, q in zip(coeff, polys):
        if c == 0:
            continue
        for exp, u in q.terms:
            combined[exp] = combined.get(exp, Fraction(0)) + c * u
    n = len(target)
    return RationalPolynomial.from_dict(n, combined)


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
        obj["q_polys"] = [[[list(exp), c.numerator, c.denominator] for exp, c in q.terms]
                          for q in cert.q_polys]
    return json.dumps(obj, separators=(",", ":")) + "\n"


def load_certificate(text: str) -> tuple[Certificate, HypothesisClass]:
    """Parse a serialized certificate, checking every field before it is used.

    Malformed input (invalid JSON, a missing field, a wrong type, an index or
    a value out of range, an empty class) raises ValueError.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("invalid certificate JSON: nested too deeply") from None
    if not isinstance(obj, dict) or not obj.keys() >= {"class", "ell", "d", "ordering",
                                                       "witnesses"}:
        raise ValueError("certificate needs the fields class, ell, d, ordering, witnesses")
    h = parse_class_json(json.dumps(obj["class"]))
    if h.is_empty:
        raise ValueError("certificate class is empty")
    pats = h.sorted_patterns()
    witnesses = tuple(None if w is None else _witness(w, h) for w in _list(obj["witnesses"]))
    q_polys = None
    if "q_polys" in obj:
        q_polys = []
        for terms in _list(obj["q_polys"]):
            coeffs: dict[Pattern, Fraction] = {}
            for term in _list(terms):
                if not (isinstance(term, list) and len(term) == 3 and type(term[1]) is int):
                    raise ValueError(f"term {term!r} is not [exponents, numerator, denominator]")
                exp = tuple(_int(e, 0, h.k) for e in _list(term[0]))
                if len(exp) != h.n or exp in coeffs:
                    raise ValueError(f"exponent vector {exp} has the wrong length or repeats")
                coeffs[exp] = Fraction(term[1], _int(term[2], 1))
            q_polys.append(RationalPolynomial.from_dict(h.n, coeffs))
        q_polys = tuple(q_polys)
    cert = Certificate(n=h.n, k=h.k, ell=_int(obj["ell"], 1, h.k + 1),
                       d=_int(obj["d"], 0, h.n + 1),
                       ordering=tuple(pats[_int(j, 0, len(pats))]
                                      for j in _list(obj["ordering"])),
                       witnesses=witnesses, q_polys=q_polys)
    return cert, h


def _witness(w, h: HypothesisClass) -> tuple[int, tuple[int, ...]]:
    if not isinstance(w, dict) or w.keys() != {"direction", "values"}:
        raise ValueError(f"witness {w!r} is not null or a direction and values")
    return _int(w["direction"], 0, h.n), tuple(_int(v, 0, h.k) for v in _list(w["values"]))


def _int(value, lo: int, hi: Optional[int] = None) -> int:
    """``value`` if it is an int (not a bool) within [lo, hi), else ValueError."""
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise ValueError(f"expected an integer in [{lo},{hi}), got {value!r}")
    return value


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
    present) support, per-variable degrees, and exact unit triangularity of
    the evaluation matrix.

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
        for s, q in enumerate(cert.q_polys):
            for exp, _ in q.terms:
                if (len(exp) != h.n or not all(0 <= e < h.k for e in exp)
                        or sum(e >= cert.ell for e in exp) > cert.d):
                    failures.append(f"poly {s}: monomial {exp} outside the basis")
                    break
        for t, p in enumerate(cert.ordering):
            for s, q in enumerate(cert.q_polys):
                value = q.evaluate(p)
                if t == s and value != 1:
                    failures.append(f"diagonal ({t},{s}) is {value}, expected 1")
                if t > s and value != 0:
                    failures.append(f"entry ({t},{s}) is {value}, expected 0")
    return VerifyReport(ok=not failures, failures=tuple(failures))


"""The orders of the enumerations are pinned.

``random_class`` draws one ``rng.random()`` per cell of [k]^n in
lexicographic order, ``iter_all_classes`` numbers its masks over the same
cell list, and ``monomial_set`` fixes the row order of the spanning
certificate's evaluation matrix.  A SHA-256 over each must stay fixed, so a
new enumeration has to keep every order and every draw.
"""

import hashlib
from itertools import product

from pseudocube import iter_all_classes, monomial_set, random_class, serialize_class
from pseudocube.bounds import iter_bounded_high_vectors

RANDOM_CLASS_SHA256 = "1deaac765ff6a243905e979028a4677e1e64da9cdff157dd23bb32543e9f2357"
ALL_CLASSES_SHA256 = "ce219f972a5c8856a1301142d8c1488b5feaddc4e1e51fb317e4c6cc253b877b"
MONOMIAL_SHA256 = "4cc6afefcbfc3f40e120fbe2e139df05647ea253efcbe33a497a12a87703aee2"

# (n, k) of the random grid, each at every density and seed below
RANDOM_SHAPES = ((1, 2), (1, 5), (2, 3), (3, 2), (3, 4), (4, 3), (5, 2), (5, 4), (7, 2))
DENSITIES = (0.05, 0.3, 0.5, 0.9)
SEEDS = (0, 1, 17, 2024)


def _sha(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
    return sha.hexdigest()


def _grid(n_max: int, k_max: int):
    """Every valid (n, k, ell, d) with n <= n_max and k <= k_max."""
    for n in range(1, n_max + 1):
        for k in range(2, k_max + 1):
            for ell in range(1, k + 1):
                for d in range(n + 1):
                    yield n, k, ell, d


def random_class_digest() -> str:
    return _sha(f"{n} {k} {density} {seed}\n"
                + serialize_class(random_class(n, k, density, seed))
                for n, k in RANDOM_SHAPES for density in DENSITIES for seed in SEEDS)


def all_classes_digest() -> str:
    return _sha(serialize_class(h) for h in iter_all_classes(2, 3))


def monomial_digest() -> str:
    return _sha(f"{cell} {monomial_set(*cell)}\n" for cell in _grid(4, 4))


def test_random_class_draws_unchanged():
    assert random_class_digest() == RANDOM_CLASS_SHA256


def test_all_classes_order_unchanged():
    assert sum(1 for _ in iter_all_classes(2, 3)) == 2 ** 9 - 1
    assert all_classes_digest() == ALL_CLASSES_SHA256


def test_monomial_basis_order_unchanged():
    assert monomial_digest() == MONOMIAL_SHA256


def test_bounded_high_vectors_are_the_lexicographic_filter_of_the_cube():
    for n, k, ell, d in _grid(5, 4):
        expected = [v for v in product(range(k), repeat=n)
                    if sum(x >= ell for x in v) <= d]
        assert list(iter_bounded_high_vectors(n, k, ell, d)) == expected, (n, k, ell, d)

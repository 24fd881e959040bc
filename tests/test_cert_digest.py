"""Certificate bytes are pinned.

A SHA-256 over a seeded corpus of serialized certificates (``construct_q``
and ``peeling_order``) and ``PeelingError`` messages (at one below the DS
dimension) must stay fixed.  Any change to the peeling order, the witness
value sets, the polynomial terms or the error texts shows up here, so a
refactor of the peel or the line grouping has to keep every byte.
"""

import hashlib

from pseudocube import (PeelingError, construct_q, ds_dimension, extremal_class,
                        peeling_order, serialize_certificate)

from conftest import random_corpus

CORPUS_SHA256 = "9ca9156a5b47c72c40dec98918fad7cff72bb54d74edae16ae927f47a481fcbe"

# (count, n, k, density, seed0, max_size) of the random part of the corpus
RANDOM_CELLS = ((20, 2, 3, 0.5, 3000, None),
                (20, 3, 3, 0.4, 3100, 14),
                (12, 3, 4, 0.3, 3200, 16),
                (12, 4, 2, 0.5, 3300, None),
                (8, 4, 3, 0.25, 3400, 16),
                (6, 5, 2, 0.4, 3500, 16))

# (n, k, ell, d) of the tight part: extremal classes meet the bound
EXTREMAL_CELLS = ((2, 3, 1, 1), (3, 3, 1, 1), (3, 3, 2, 1), (3, 2, 1, 2),
                  (4, 2, 1, 1), (3, 4, 2, 1))


def _outcome(fn, h, ell, d) -> str:
    head = f"{fn.__name__} ell={ell} d={d} class={sorted(h.patterns)}\n"
    try:
        return head + serialize_certificate(fn(h, ell, d), h)
    except PeelingError as exc:
        return head + f"PeelingError: {exc}\n"


def corpus_records():
    classes = [h for cell in RANDOM_CELLS for h in random_corpus(*cell[:5], max_size=cell[5])]
    classes += [extremal_class(*cell) for cell in EXTREMAL_CELLS]
    for h in classes:
        for ell in range(1, h.k):
            d = ds_dimension(h, ell).value
            yield _outcome(construct_q, h, ell, d)
            if d < h.n:
                yield _outcome(peeling_order, h, ell, d)
            if d >= 1:
                yield _outcome(construct_q, h, ell, d - 1)
                yield _outcome(peeling_order, h, ell, d - 1)


def corpus_digest() -> tuple[str, int, int]:
    """(hex digest, record count, PeelingError count)."""
    sha = hashlib.sha256()
    records = errors = 0
    for text in corpus_records():
        sha.update(text.encode("utf-8"))
        records += 1
        errors += "PeelingError: " in text
    return sha.hexdigest(), records, errors


def test_certificate_corpus_bytes_unchanged():
    digest, records, errors = corpus_digest()
    # the corpus exercises both outcomes, so the digest pins both
    assert 0 < errors < records
    assert digest == CORPUS_SHA256

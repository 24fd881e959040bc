"""Min-max orientations are pinned.

One SHA-256 digest over two record sets must stay fixed:

- ``min_max_orientation_indexed`` (every selection and c*) on a seeded
  corpus of integer-indexed graphs, with isolated vertices, repeated edges
  and edges no larger than ell;
- ``format_orientation(orient_minmax(...))`` dumps of ``build_oig`` on
  seeded random classes.

A change to how the flow is run has to keep every selection, not only the
optimum, because leave-one-out predictions are read off the selection.
"""

import hashlib
import random

from pseudocube import build_oig, orient_minmax
from pseudocube.oig import format_orientation, min_max_orientation_indexed

from conftest import random_corpus

ORIENTATION_SHA256 = "e5970e6d1e86adba0cc79a398e85b2fa9d6a51c4d52d7bd9aec33173965e207d"


def _random_graph(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    nv = rng.randint(1, 14)
    edges = [tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 7)))))
             for _ in range(rng.randint(0, 16))]
    if edges:
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 4))]
    rng.shuffle(edges)
    return nv, edges


def _indexed_records():
    rng = random.Random(17)
    for _ in range(900):
        nv, edges = _random_graph(rng)
        ell = rng.randint(1, 3)
        selection, cstar = min_max_orientation_indexed(nv, edges, ell)
        picks = [sorted(s) for s in selection]
        yield f"indexed nv={nv} ell={ell} edges={edges} c*={cstar} selection={picks}\n"


# (count, n, k, density, first seed) of the random classes that are oriented
CORPORA = ((40, 3, 3, 0.5, 0), (30, 4, 3, 0.4, 100), (20, 3, 4, 0.35, 200),
           (12, 5, 2, 0.6, 300), (8, 4, 4, 0.2, 400))


def _oig_records():
    for count, n, k, density, seed0 in CORPORA:
        for h in random_corpus(count, n, k, density=density, seed0=seed0):
            g = build_oig(h)
            for ell in range(1, k):
                sigma, cstar = orient_minmax(g, ell)
                yield (f"oig n={n} k={k} {sorted(h.patterns)} ell={ell} c*={cstar}\n"
                       + format_orientation(g, sigma))


def test_orientations_are_pinned():
    digest = hashlib.sha256()
    for record in (*_indexed_records(), *_oig_records()):
        digest.update(record.encode())
    assert digest.hexdigest() == ORIENTATION_SHA256

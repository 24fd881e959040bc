"""Verify reports on edited certificates are pinned.

Every certificate of the ``test_cert_digest`` corpus is reloaded and
verified as written, and then once per seeded edit: a numerator, a
denominator, an exponent or a witness value set changed in its JSON.  A
SHA-256 over the outcomes, each ``(ok, failures)`` or the ``ValueError``
text of a rejected load, must stay fixed, so a change to how certificates
are loaded or evaluated cannot change what the verifier says about them.
"""

import copy
import hashlib
import json
import random

from pseudocube import load_certificate, verify_certificate

from test_cert_digest import corpus_records

REPORTS_SHA256 = "04cc45b95ea4dc4488ba0239687fc8849925c676cb0ff46b18f4b6a8dcbd9018"


def _edit_numerator(obj, rng):
    terms = rng.choice(obj["q_polys"])
    if terms:
        term = rng.choice(terms)
        term[1] = rng.choice((term[1] + rng.choice((-1, 1)), -term[1], 2 * term[1], 0))


def _edit_denominator(obj, rng):
    terms = rng.choice(obj["q_polys"])
    if terms:
        term = rng.choice(terms)
        term[2] = rng.choice((term[2] + 1, 3 * term[2], -term[2], 0))


def _edit_exponent(obj, rng):
    terms = rng.choice(obj["q_polys"])
    if terms:
        exp = rng.choice(terms)[0]
        i = rng.randrange(len(exp))
        exp[i] += rng.choice((-1, 1, obj["class"]["k"]))


def _edit_witness(obj, rng):
    steps = [w for w in obj["witnesses"] if w is not None]
    if steps:
        w = rng.choice(steps)
        action = rng.randrange(3)
        if action == 0:
            w["values"].append(rng.randrange(obj["class"]["k"]))
        elif action == 1 and w["values"]:
            del w["values"][rng.randrange(len(w["values"]))]
        else:
            w["direction"] = (w["direction"] + 1) % obj["class"]["n"]


POLY_EDITS = (_edit_numerator, _edit_denominator, _edit_exponent)


def _outcome(text: str) -> str:
    try:
        cert, h = load_certificate(text)
    except ValueError as exc:
        return f"ValueError: {exc}"
    report = verify_certificate(cert, h)
    return repr((report.ok, report.failures))


def report_records():
    certificates = [record.split("\n", 1)[1] for record in corpus_records()
                    if "PeelingError: " not in record]
    for index, text in enumerate(certificates):
        yield f"{index} none {_outcome(text)}\n"
        rng = random.Random(index)
        obj = json.loads(text)
        edits = (POLY_EDITS if "q_polys" in obj else ()) + (_edit_witness,)
        for edit in edits:
            edited = copy.deepcopy(obj)
            edit(edited, rng)
            yield f"{index} {edit.__name__} {_outcome(json.dumps(edited))}\n"


def test_verify_reports_on_edited_certificates_unchanged():
    sha = hashlib.sha256()
    kinds = {"ok": 0, "failed": 0, "ValueError": 0}
    for record in report_records():
        sha.update(record.encode("utf-8"))
        outcome = record.split(" ", 2)[2]
        kinds["ValueError" if outcome.startswith("ValueError") else
              "ok" if outcome.startswith("(True") else "failed"] += 1
    # the corpus exercises all three outcomes, so the digest pins each
    assert all(kinds.values()), kinds
    assert sha.hexdigest() == REPORTS_SHA256

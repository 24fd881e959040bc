import json
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pseudocube import (CapExceeded, ClassFormatError, HypothesisClass,
                        parse_class, parse_class_json, project, random_class,
                        serialize_class, serialize_class_json)
from pseudocube.classes import _parse_class_bulk, iter_all_classes, lines

from oracles import json_rows_class, validate_patterns


def make(n, k, pats):
    return HypothesisClass.from_patterns(n, k, pats)


class TestConstruction:
    def test_validates_lengths_and_ranges(self):
        with pytest.raises(ValueError):
            make(2, 3, [(0, 0, 0)])
        with pytest.raises(ValueError):
            make(2, 3, [(0, 3)])
        with pytest.raises(ValueError, match="label nan out of range"):
            make(2, 3, [(1, math.nan)])
        with pytest.raises(ValueError):
            make(0, 3, [])
        with pytest.raises(ValueError):
            make(2, 1, [])

    def test_empty_is_flagged(self):
        h = make(2, 3, [])
        assert h.is_empty and len(h) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.data())
    def test_bulk_acceptance_matches_the_pattern_loop(self, n, k, data):
        # odd labels (bools, floats, strings, out of range) and odd patterns
        # (wrong length, not a sequence) must meet the accepting or the
        # raising outcome of the loop, message for message
        label = (st.integers(-1, k) | st.booleans() | st.sampled_from([0.0, 1.0, 1.5, math.nan, "a"]))
        pattern = (st.lists(label, min_size=n - 1, max_size=n + 1).map(tuple)
                   | st.sampled_from(["ab", 5, ()]))
        patterns = frozenset(data.draw(st.lists(pattern, max_size=6)))
        try:
            expected = validate_patterns(n, k, patterns)
        except (TypeError, ValueError) as exc:
            expected = (type(exc), str(exc))
        try:
            HypothesisClass(n, k, patterns)
            got = None
        except (TypeError, ValueError) as exc:
            got = (type(exc), str(exc))
        assert got == expected

    def test_duplicates_collapse_via_set_semantics(self):
        h = make(1, 2, [(0,), (0,), (1,)])
        assert len(h) == 2


class TestValueSemantics:
    """A class is an immutable value of its three fields, as the frozen
    dataclass it replaced was, without being a tuple."""

    PATS = frozenset({(0, 1), (2, 0)})

    def test_positional_and_keyword_construction_agree(self):
        h = HypothesisClass(2, 3, self.PATS)
        assert HypothesisClass(n=2, k=3, patterns=self.PATS) == h
        assert HypothesisClass(2, k=3, patterns=self.PATS) == h
        assert (h.n, h.k, h.patterns) == (2, 3, self.PATS)
        with pytest.raises(TypeError):
            HypothesisClass(2, 3)

    def test_equality_and_hash_follow_the_three_fields_only(self):
        h = HypothesisClass(2, 3, self.PATS)
        h.columns, h.label_masks  # the cached layout is no field
        same = HypothesisClass(2, 3, frozenset(self.PATS))
        assert h == same and not h != same and hash(h) == hash(same)
        assert hash(h) == hash((2, 3, self.PATS))
        for other in (HypothesisClass(2, 4, self.PATS), HypothesisClass(3, 3, frozenset()),
                      HypothesisClass(2, 3, frozenset({(0, 1)}))):
            assert h != other
        # another type with equal field values is not equal
        assert h != (2, 3, self.PATS)
        assert h.__eq__((2, 3, self.PATS)) is NotImplemented

    def test_repr_is_the_dataclass_form(self):
        assert (repr(HypothesisClass(2, 3, frozenset({(0, 1)})))
                == "HypothesisClass(n=2, k=3, patterns=frozenset({(0, 1)}))")

    @pytest.mark.parametrize("name", ["n", "k", "patterns", "columns", "other"])
    def test_assigning_or_deleting_an_attribute_raises(self, name):
        h = HypothesisClass(2, 3, self.PATS)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(h, name, 1)
        with pytest.raises(AttributeError):
            delattr(h, name)
        assert (h.n, h.k, h.patterns) == (2, 3, self.PATS)

    def test_iterating_yields_no_fields(self):
        h = HypothesisClass(2, 3, self.PATS)
        with pytest.raises(TypeError, match="not iterable"):
            iter(h)
        assert not isinstance(h, tuple)


class TestParsing:
    def test_basic_file(self):
        h = parse_class("n=2 k=3\n0 0\n1 2\n")
        assert (h.n, h.k) == (2, 3)
        assert h.patterns == {(0, 0), (1, 2)}

    def test_comments_and_blank_lines(self):
        h = parse_class("# a comment\n\nn=2 k=3  # header\n0 0\n# mid\n1 2\n")
        assert len(h) == 2

    def test_label_out_of_range_reports_line(self):
        with pytest.raises(ClassFormatError, match="line 2.*out of range"):
            parse_class("n=2 k=3\n0 5\n")

    def test_wrong_row_length(self):
        with pytest.raises(ClassFormatError, match="expected 2 labels"):
            parse_class("n=2 k=3\n0 0 1\n")

    def test_duplicate_row_rejected(self):
        with pytest.raises(ClassFormatError, match="duplicate"):
            parse_class("n=2 k=3\n0 0\n0 0\n")

    def test_malformed_header(self):
        with pytest.raises(ClassFormatError, match="header"):
            parse_class("n=2\n0 0\n")
        with pytest.raises(ClassFormatError):
            parse_class("0 0\n")

    def test_json_form(self):
        h = parse_class('{"n":2,"k":3,"patterns":[[0,0],[1,2]]}')
        assert h == parse_class("n=2 k=3\n0 0\n1 2\n")
        with pytest.raises(ClassFormatError):
            parse_class_json('{"n":2,"k":3,"patterns":[[0,0],[0,0]]}')

    def test_round_trip_is_canonical_identity(self):
        text = "n=2 k=3\n1 2\n0 0\n"
        canonical = "n=2 k=3\n0 0\n1 2\n"
        assert serialize_class(parse_class(text)) == canonical
        assert parse_class(serialize_class(parse_class(text))) == parse_class(text)
        j = serialize_class_json(parse_class(text))
        assert serialize_class_json(parse_class(j)) == j


class TestJsonShapes:
    @pytest.mark.parametrize("text", ['[1, 2]', '7', '{"n": 2, "k": 2, "patterns": 3}',
                                      '{"n": 2, "k": 2, "patterns": [5]}'])
    def test_wrong_shapes_are_format_errors(self, text):
        with pytest.raises(ClassFormatError):
            parse_class_json(text)

    @pytest.mark.parametrize("text", ['{"n": true, "k": 2, "patterns": [[0]]}',
                                      '{"n": 1, "k": 2, "patterns": [[true], [false]]}',
                                      '{"n": 1, "k": 2, "patterns": [[false]]}'])
    def test_booleans_are_not_integers(self, text):
        with pytest.raises(ClassFormatError):
            parse_class_json(text)

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(ClassFormatError, match="nested too deeply"):
            parse_class_json("[" * 200_000)


class TestProject:
    def test_first_coordinate(self):
        h = make(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert project(h, (0,)).patterns == {(0,), (1,)}

    def test_identity_projection(self):
        h = make(3, 2, [(0, 0, 1), (1, 1, 0)])
        assert project(h, (0, 1, 2)) == h

    def test_duplicate_collapse(self):
        h = make(2, 2, [(0, 0), (0, 1)])
        assert project(h, (0,)).patterns == {(0,)}

    def test_errors(self):
        h = make(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            project(h, ())
        with pytest.raises(ValueError):
            project(h, (0, 2))
        with pytest.raises(ValueError):
            project(h, (1, 0))


class TestLines:
    def test_all_directions_keep_input_order(self):
        pats = [(1, 0), (0, 0), (0, 1)]
        assert dict(lines(pats, range(2))) == {
            (0, (0,)): [(1, 0), (0, 0)], (0, (1,)): [(0, 1)],
            (1, (1,)): [(1, 0)], (1, (0,)): [(0, 0), (0, 1)]}

    def test_subset_of_directions(self):
        pats = [(0, 2, 1), (1, 2, 1), (0, 0, 1)]
        assert dict(lines(pats, (2,))) == {
            (2, (0, 2)): [(0, 2, 1)], (2, (1, 2)): [(1, 2, 1)], (2, (0, 0)): [(0, 0, 1)]}
        assert dict(lines(pats, [0])) == {
            (0, (2, 1)): [(0, 2, 1), (1, 2, 1)], (0, (0, 1)): [(0, 0, 1)]}


class TestRandomClass:
    def test_density_one_is_full_cube(self):
        h = random_class(2, 3, 1.0, seed=1)
        assert len(h) == 9

    def test_density_zero_is_empty(self):
        assert random_class(2, 3, 0.0, seed=1).is_empty

    def test_same_seed_same_class(self):
        a = random_class(2, 3, 0.5, seed=7)
        b = random_class(2, 3, 0.5, seed=7)
        assert a == b
        c = random_class(2, 3, 0.5, seed=8)
        assert a != c  # overwhelmingly likely under a 9-cell cube

    def test_cap(self):
        with pytest.raises(CapExceeded):
            random_class(30, 3, 0.5, seed=0, cap=2 ** 10)

    def test_density_range_validated(self):
        with pytest.raises(ValueError):
            random_class(2, 3, 1.5, seed=0)
        with pytest.raises(ValueError):
            random_class(2, 3, -0.1, seed=0)


class TestIterAllClasses:
    def test_cap_is_checked_before_the_cells_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"^2\^\(k\^n\) = 2\^531441 exceeds cap 16777216$"):
                next(iter_all_classes(12, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_cap_boundary(self):
        assert sum(1 for _ in iter_all_classes(2, 2, cap=2 ** 4)) == 15
        with pytest.raises(CapExceeded, match=r"2\^4 exceeds cap 15"):
            next(iter_all_classes(2, 2, cap=2 ** 4 - 1))


# property tests: round trips and projection laws on arbitrary small classes

small_classes = st.integers(1, 4).flatmap(
    lambda n: st.integers(2, 4).flatmap(
        lambda k: st.builds(
            lambda cells: (n, k, cells),
            st.lists(st.integers(0, k ** n - 1), min_size=1, max_size=12, unique=True))))


def decode(n, k, cells):
    pats = []
    for c in cells:
        p = []
        for _ in range(n):
            p.append(c % k)
            c //= k
        pats.append(tuple(p))
    return HypothesisClass.from_patterns(n, k, pats)


@settings(max_examples=60, deadline=None)
@given(small_classes)
def test_serialize_parse_round_trip(spec):
    h = decode(*spec)
    assert parse_class(serialize_class(h)) == h
    assert parse_class_json(serialize_class_json(h)) == h


FAULTS = (None, "label out of range", "negative label", "non-integer label", "short row",
          "long row", "duplicate row", "bad header", "no header", "no rows")


@st.composite
def class_files(draw):
    """A random class's file in many spellings (blank lines, CRLF and other
    line breaks, tabs and extra spaces, ``+1`` and ``01`` labels, bytes),
    with at most one fault; returns (text, fault, whether it has rows)."""
    n, k, cells = draw(small_classes)
    rows = [[str(v) for v in p] for p in decode(n, k, cells).sorted_patterns()]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "no rows":
        rows = []
    elif fault == "duplicate row":
        rows.append(list(draw(st.sampled_from(rows))))
    elif fault in ("short row", "long row"):
        row = draw(st.sampled_from(rows))
        if fault == "short row":
            row.pop()
        else:
            row.append("0")
    elif fault in ("label out of range", "negative label", "non-integer label"):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n - 1))] = {
            "label out of range": str(k), "negative label": "-1",
            "non-integer label": draw(st.sampled_from(["x", "1.0", "0x1", "1e0"]))}[fault]
    header = [f"n={n}", f"k={k}"]
    if fault == "bad header":
        header = draw(st.sampled_from([[f"n={n}"], [f"k={k}", f"n={n}"], ["n=x", f"k={k}"],
                                       ["n=0", f"k={k}"], [f"n={n}", "k=1"],
                                       [f"n={n}", f"k={k}", "d=1"], [f"N={n}", f"k={k}"]]))
    fields_per_line = [] if fault == "no header" else [header]
    fields_per_line += [[draw(st.sampled_from(["", "+", "0"])) + token for token in row]
                        for row in rows]
    out = []
    for fields in fields_per_line:
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(["", "  ", "\t"])))
        separator = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        out.append(draw(st.sampled_from(["", " "])) + separator.join(fields))
    text = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])).join(out) + "\n"
    return (text.encode() if draw(st.booleans()) else text), fault, bool(rows)


def _outcome(text):
    try:
        return parse_class(text)
    except ClassFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(class_files())
def test_bulk_read_gives_the_line_loop_class_or_error(case):
    # a trailing comment line sends a file through the line loop
    text, fault, has_rows = case
    assert _outcome(text) == _outcome(text + (b"\n# end\n" if isinstance(text, bytes)
                                              else "\n# end\n"))
    if fault is None and has_rows:
        assert _parse_class_bulk(text.decode() if isinstance(text, bytes) else text) is not None


@st.composite
def json_rows(draw):
    """n, k and the rows of a random class as a JSON class object holds
    them, sometimes with one fault: a bool, a float, null or a label out of
    range, a row cut short or grown, or a repeated row."""
    n, k, cells = draw(small_classes)
    rows = [list(p) for p in decode(n, k, cells).sorted_patterns()]
    row = draw(st.sampled_from(rows))
    fault = draw(st.sampled_from([None, "value", "short", "long", "repeat"]))
    if fault == "value":
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, k, True, False, 1.0, None]))
    elif fault == "short":
        row.pop()
    elif fault == "long":
        row.append(0)
    elif fault == "repeat":
        rows.append(list(row))
    return n, k, rows


@settings(max_examples=200, deadline=None)
@given(json_rows())
def test_json_rows_give_the_row_by_row_class_or_error(case):
    n, k, rows = case
    try:
        expected = json_rows_class(n, k, rows)
    except ClassFormatError as exc:
        expected = str(exc)
    text = json.dumps({"n": n, "k": k, "patterns": rows})
    try:
        assert parse_class_json(text) == expected
    except ClassFormatError as exc:
        assert str(exc) == expected


@settings(max_examples=60, deadline=None)
@given(small_classes, st.data())
def test_projection_composition_and_size(spec, data):
    h = decode(*spec)
    s = tuple(sorted(data.draw(
        st.sets(st.integers(0, h.n - 1), min_size=1, max_size=h.n))))
    t_prime = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(s) - 1), min_size=1, max_size=len(s)))))
    assert len(project(h, s)) <= len(h)
    assert project(h, s).patterns == {tuple(p[i] for i in s) for p in h.patterns}
    composed = project(project(h, s), t_prime)
    direct = project(h, tuple(s[i] for i in t_prime))
    assert composed == direct


layout_classes = st.integers(1, 5).flatmap(
    lambda n: st.integers(2, 4).flatmap(
        lambda k: st.builds(
            lambda cells: (n, k, cells),
            st.lists(st.integers(0, k ** n - 1), max_size=20, unique=True))))


@settings(max_examples=80, deadline=None)
@given(layout_classes)
def test_layout_matches_the_patterns(spec):
    h = decode(*spec)
    cols, masks = h.columns, h.label_masks
    assert len(cols) == len(masks) == h.n
    for u in range(h.n):
        assert len(cols[u]) == len(h) and len(masks[u]) == h.k
        for y in range(h.k):
            assert masks[u][y] >> len(h) == 0
            assert all(bool(masks[u][y] >> i & 1) == (v == y) for i, v in enumerate(cols[u]))
    assert set(zip(*cols)) == h.patterns
    # the layout takes no part in equality or hashing
    fresh = decode(*spec)
    assert "columns" not in vars(fresh) and "label_masks" not in vars(fresh)
    assert fresh == h and hash(fresh) == hash(h) and {fresh: 1}[h] == 1
    copy = pickle.loads(pickle.dumps(h))
    assert vars(copy)["columns"] == cols and vars(copy)["label_masks"] == masks
    assert copy == fresh and hash(copy) == hash(fresh)


def test_empty_class_has_n_empty_columns():
    h = make(3, 2, [])
    assert h.columns == ((), (), ())
    assert h.label_masks == ((0, 0),) * 3


@pytest.mark.parametrize("k", [2, 3, 5, 256, 257])
def test_label_masks_match_the_definition_on_both_sides_of_the_byte_alphabet(k):
    """Labels below 256 are translated a byte at a time; k = 257 keeps the
    bit-string form.  Both must give the definition, bit for bit."""
    rng = random.Random(k)
    labels = [0, k - 1] + [rng.randrange(k) for _ in range(60)]
    h = make(3, k, {tuple(rng.choice(labels) for _ in range(3)) for _ in range(40)})
    masks = h.label_masks
    assert len(masks) == 3 and all(len(row) == k for row in masks)
    for u, col in enumerate(h.columns):
        for y in range(k):
            assert masks[u][y] == sum(1 << i for i, v in enumerate(col) if v == y), (u, y)
    copy = pickle.loads(pickle.dumps(h))
    assert vars(copy)["label_masks"] == masks
    assert type(copy).label_masks.func(copy) == masks
    assert make(2, k, []).label_masks == ((0,) * k,) * 2

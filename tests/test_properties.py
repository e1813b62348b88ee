"""Property tests: the degree reader, the CLI exit-code contract on any
JSON file, the document round trip on catalog documents and on
explicit spaces with Morse blocks, and Smith normal form on matrices
with planted torsion.

Runs are reproducible and leave no example database: every test is
derandomized with a bounded number of examples.
"""

import json
from itertools import islice
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from mbaudit import DocumentError, parse_document, serialize_document, smith_normal_form
from mbaudit.document import MAX_DEGREE, parse_degree_text

import workloads
from helpers import FIXTURES, FIXTURE_NAMES, REPO, planted_torsion_matrix, run_cli
from test_homology import assert_snf_passes_independent_checks
from test_morsebott import random_catalog_document

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

DIGITS = "0123456789"
degree_texts = st.one_of(
    st.text(),
    st.text(alphabet=DIGITS, max_size=7),
    st.text(alphabet=DIGITS + " +-_.٣５", max_size=7),
    st.integers(0, 2 * MAX_DEGREE).map(str),
)


@PROPERTY
@given(degree_texts)
def test_degree_text_is_canonical_and_bounded_or_refused(text):
    try:
        n = parse_degree_text(text, "degree")
    except DocumentError:
        return
    assert type(n) is int and str(n) == text and 0 <= n <= MAX_DEGREE


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FIXTURE_DOCS = [json.loads((FIXTURES / f"{name}.json").read_text()) for name in FIXTURE_NAMES]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    else:
        yield path
        return
    for key, child in obj:
        yield from _leaf_paths(child, path + (key,))


# a leaf replaced by one of its own kind keeps many documents parsing,
# so the audit and Morse code behind the parser runs too
SAME_KIND = {
    int: st.integers(-2, 12) | st.integers(),
    str: st.sampled_from(
        ["point", "sphere:1", "sphere:3", "rp:2", "rp:3", "torus2", "orientable", "twisted"]
    ) | st.text(max_size=4),
}


@st.composite
def fixture_with_values_replaced(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(FIXTURE_DOCS))))
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(_leaf_paths(doc))))
        holder = doc
        for key in parents:
            holder = holder[key]
        kind = SAME_KIND.get(type(holder[last]))
        holder[last] = draw(json_values if kind is None else st.one_of(kind, kind, json_values))
    return doc


@PROPERTY
@given(st.one_of(json_values, fixture_with_values_replaced()))
def test_any_json_file_ends_in_a_documented_exit(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(value))
    for command in ("audit", "morse"):
        code, out, _ = run_cli(command, str(path))
        assert code in range(6), (command, code)
        if code >= 2:
            assert out == "", (command, code)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_catalog_documents_round_trip(seed):
    first = parse_document(json.dumps(random_catalog_document(Random(seed))))
    text = serialize_document(first)
    second = parse_document(text)
    assert second == first
    assert serialize_document(second) == text


@settings(PROPERTY, max_examples=6)
@given(st.integers(0, 2**32 - 1))
def test_explicit_documents_round_trip(seed):
    # one cycle of the stream: two inline multi-boundary ambients, each with
    # a Morse block and its `gauge` twist, then a growth-block ambient
    items = workloads.ExplicitComplexes(REPO, seed, 5.0).items(Random(seed))
    for item in islice(items, 3):
        first = parse_document(item["input"])
        text = serialize_document(first)
        second = parse_document(text)
        assert second == first
        assert serialize_document(second) == text


@settings(PROPERTY, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_snf_finds_planted_torsion_and_passes_the_independent_checks(seed):
    # rank at most half the smaller side, rounded up: no determinant pins
    # the product, so the local valuations carry the check at each prime
    m, planted = planted_torsion_matrix(Random(seed))
    assert_snf_passes_independent_checks(m)
    assert smith_normal_form(m).factors == planted

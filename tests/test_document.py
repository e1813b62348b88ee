import json
import warnings

import pytest

from mbaudit import (
    DocumentError,
    InadmissibleCharacterError,
    MorseBottData,
    OrientationCharacter,
    RealProjective,
    parse_document,
    serialize_document,
)
from mbaudit.document import MAX_DEGREE, parse_space

from helpers import FIXTURES, FIXTURE_NAMES, run_cli


def load(name):
    return (FIXTURES / f"{name}.json").read_text()


def test_all_fixtures_parse():
    for name in FIXTURE_NAMES:
        doc = parse_document(load(name))
        assert doc.criticals, name


def test_fixture_round_trip_is_identity():
    for name in FIXTURE_NAMES:
        doc = parse_document(load(name))
        again = parse_document(serialize_document(doc))
        assert again == doc, name
        # and serialization itself is stable
        assert serialize_document(again) == serialize_document(doc)


def test_rp5_fixture_contents():
    doc = parse_document(load("rp5-counterexample"))
    assert doc.ambient == RealProjective(5)
    assert len(doc.criticals) == 3
    assert doc.criticals[1].space == RealProjective(3)
    assert doc.criticals[1].index == 1
    assert doc.criticals[1].negative_character is OrientationCharacter.NONTRIVIAL


def test_unknown_fields_rejected_everywhere():
    base = json.loads(load("s1-moebius"))

    bad = dict(base)
    bad["surprise"] = 1
    with pytest.raises(DocumentError, match="surprise"):
        parse_document(json.dumps(bad))

    bad = json.loads(load("s1-moebius"))
    bad["criticals"][0]["color"] = "red"
    with pytest.raises(DocumentError, match="color"):
        parse_document(json.dumps(bad))

    bad = json.loads(load("s1-moebius"))
    bad["morse"]["extra"] = []
    with pytest.raises(DocumentError, match="extra"):
        parse_document(json.dumps(bad))

    bad = json.loads(load("s1-moebius"))
    bad["morse"]["differentials"]["1"]["stride"] = 2
    with pytest.raises(DocumentError, match="stride"):
        parse_document(json.dumps(bad))


def test_format_header_required_and_versioned():
    doc = json.loads(load("s2-height"))
    del doc["format"]
    with pytest.raises(DocumentError, match="format"):
        parse_document(json.dumps(doc))
    for version in (2, True, 1.0):  # the integer 1 only
        doc["format"] = version
        with pytest.raises(DocumentError, match=f"^unsupported format {version!r}, expected 1$"):
            parse_document(json.dumps(doc))


def test_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError, match="^invalid JSON: nested too deeply$"):
        parse_document("[" * 100_000 + "]" * 100_000)


def test_matrix_entries_must_be_integers():
    doc = json.loads(load("torus-perfect"))
    doc["morse"]["differentials"]["1"]["entries"] = [0, 0.5]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))
    doc["morse"]["differentials"]["1"]["entries"] = [0, True]
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


def test_invalid_json_and_shapes(tmp_path):
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document("{nope")
    doc = json.loads(load("torus-perfect"))
    doc["morse"]["differentials"]["1"]["cols"] = 3
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))
    p = tmp_path / "shape.json"
    for name, edit, message in [
        ("torus-perfect", lambda d: d["morse"]["differentials"]["1"].update(entries="0 0"),
         "morse.differentials[1].entries must be a list"),
        ("rp5-counterexample", lambda d: d.update(ambient={"ranks": 1, "boundaries": []}),
         "ambient: ranks and boundaries must be lists"),
        ("rp5-counterexample", lambda d: d.update(ambient={"ranks": [1], "boundaries": {}}),
         "ambient: ranks and boundaries must be lists"),
        ("rp5-counterexample", lambda d: d["criticals"][0].update(negative_character=1),
         "negative_character must be a string"),
        ("rp5-counterexample", lambda d: d.update(criticals={}), "criticals must be a list"),
        ("s1-moebius", lambda d: d["morse"].update(generators={}), "morse.generators must be a list"),
        ("s1-moebius", lambda d: d["morse"]["twists"].update({"": {}}),
         "twist names must be nonempty strings"),
    ]:
        doc = json.loads(load(name))
        edit(doc)
        p.write_text(json.dumps(doc))
        assert run_cli("audit", str(p)) == (2, "", f"error: {message}\n")


def test_explicit_ambient_inline():
    text = json.dumps(
        {
            "format": 1,
            "ambient": {
                "ranks": [1, 1],
                "boundaries": [{"rows": 1, "cols": 1, "entries": [0]}],
            },
            "criticals": [
                {"space": "point", "index": 0, "negative_character": "orientable"},
                {"space": "point", "index": 1, "negative_character": "orientable"},
            ],
        }
    )
    doc = parse_document(text)
    data = doc.morse_bott()
    assert data.ambient_poincare().coeffs == (1, 1)
    # round-trips through the inline representation
    assert parse_document(serialize_document(doc)) == doc


def test_space_tags():
    assert parse_space("rp:5") == RealProjective(5)
    # str.isdigit accepts non-ASCII digits, which would not round-trip
    for bad in ("rp:0", "sphere:-1", "sphere:x", "klein", "rp:", "sphere:\u0663", "rp:\uff15"):
        with pytest.raises(DocumentError):
            parse_space(bad)
    assert run_cli("homology", "sphere:\u0663")[0] == 2


def test_matrix_keys_must_be_ascii_digits():
    doc = json.loads(load("s1-moebius"))
    doc["morse"]["differentials"]["\u0661"] = doc["morse"]["differentials"].pop("1")
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "morse.differentials key must be an integer, got '\u0661'"

    doc = json.loads(load("s1-moebius"))
    twist = doc["morse"]["twists"]["moebius"]
    twist["\u0661"] = twist.pop("1")
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "twist 'moebius' key must be an integer, got '\u0661'"


def test_huge_json_integer_is_a_document_error(tmp_path):
    # json.loads raises a plain ValueError for an integer past the
    # int/str digit limit; without that limit the format check rejects it
    text = '{"format": 1' + "0" * 5000 + ', "ambient": "point"}'
    with pytest.raises(DocumentError):
        parse_document(text)
    p = tmp_path / "huge.json"
    p.write_text(text)
    code, out, err = run_cli("audit", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_inadmissible_character_surfaces_as_its_own_error():
    text = json.dumps(
        {
            "format": 1,
            "ambient": "sphere:2",
            "criticals": [
                {"space": "point", "index": 0, "negative_character": "twisted"},
                {"space": "point", "index": 2, "negative_character": "orientable"},
            ],
        }
    )
    with pytest.raises(InadmissibleCharacterError):
        parse_document(text)


def test_morse_only_document_needs_no_criticals():
    text = json.dumps(
        {
            "format": 1,
            "ambient": "sphere:1",
            "morse": {"generators": [{"label": "a", "index": 0}]},
        }
    )
    doc = parse_document(text)
    assert doc.criticals is None
    with pytest.raises(DocumentError):
        doc.morse_bott()


def test_dimension_violations_rejected_at_parse():
    text = json.dumps(
        {
            "format": 1,
            "ambient": "sphere:2",
            "criticals": [
                {"space": "point", "index": 0, "negative_character": "orientable"},
                {"space": "torus2", "index": 2, "negative_character": "orientable"},
            ],
        }
    )
    with pytest.raises(ValueError):
        parse_document(text)


def test_matrix_entry_errors_name_the_matrix():
    from mbaudit.document import parse_matrix

    for bad in (True, 0.5, "1", None):
        obj = {"rows": 1, "cols": 3, "entries": [1, bad, 2]}
        with pytest.raises(DocumentError) as exc:
            parse_matrix(obj, "morse.differentials[2]")
        assert str(exc.value) == "morse.differentials[2] entry must be an integer"
    good = parse_matrix({"rows": 1, "cols": 2, "entries": [-1, 7]})
    assert good.entries == (-1, 7)
    with pytest.raises(DocumentError, match=r"^matrix: expected 3 entries"):
        parse_matrix({"rows": 1, "cols": 3, "entries": [1, 2]})


def test_degrees_are_bounded():
    assert parse_space(f"rp:{MAX_DEGREE}") == RealProjective(MAX_DEGREE)
    for bad in (f"sphere:{MAX_DEGREE + 1}", f"rp:{MAX_DEGREE + 1}", "rp:" + "9" * 30):
        with pytest.raises(DocumentError, match=f"dimension must be at most {MAX_DEGREE}"):
            parse_space(bad)

    point = {"ranks": [1], "boundaries": []}
    crit = {"space": "point", "index": 0, "negative_character": "orientable"}
    over = MAX_DEGREE + 1
    for what, doc in [
        ("critical index", {"ambient": point, "criticals": [crit, dict(crit, index=over)]}),
        ("bundle rank", {"ambient": point,
                         "bundle": {"base": "point", "rank": over, "character": "orientable"}}),
        ("generator index", {"ambient": point,
                             "morse": {"generators": [{"label": "a", "index": over}]}}),
    ]:
        with pytest.raises(DocumentError) as exc:
            parse_document(json.dumps(dict(doc, format=1)))
        assert str(exc.value) == f"{what} must be at most {MAX_DEGREE}, got {over}"


def test_one_morse_bott_build_per_document(monkeypatch):
    built = []
    original = MorseBottData.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MorseBottData, "__init__", counting)
    doc = parse_document(load("rp5-counterexample"))
    first, second = doc.morse_bott(), doc.morse_bott()
    assert first is second
    assert len(built) == 1 and built[0] is first


def test_missing_minimum_warns_once_per_document():
    text = json.dumps(
        {
            "format": 1,
            "ambient": {"ranks": [1, 1], "boundaries": [{"rows": 1, "cols": 1, "entries": [0]}]},
            "criticals": [{"space": "point", "index": 1, "negative_character": "orientable"}],
        }
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = parse_document(text)
        doc.morse_bott()
        doc.morse_bott()
    assert [str(w.message) for w in caught] == ["no index-0 critical submanifold; minimum missing?"]


def test_matrix_keys_are_bounded_degrees(tmp_path):
    over, long_key = str(MAX_DEGREE + 1), "0" + "9" * 5000
    for key, got in [(over, over), (long_key, "5001 digits")]:
        for where in ("morse.differentials", "twist 'moebius'"):
            doc = json.loads(load("s1-moebius"))
            block = doc["morse"]["differentials"]
            if where.startswith("twist"):
                block = doc["morse"]["twists"]["moebius"]
            block[key] = block.pop("1")
            with pytest.raises(DocumentError) as exc:
                parse_document(json.dumps(doc))
            assert str(exc.value) == f"{where} key must be at most {MAX_DEGREE}, got {got}"
    p = tmp_path / "long-key.json"
    p.write_text(json.dumps(doc))
    assert run_cli("morse", str(p)) == (
        2, "", f"error: twist 'moebius' key must be at most {MAX_DEGREE}, got 5001 digits\n"
    )


MOEBIUS_D1 = '"1": {"rows": 2, "cols": 2, "entries": [1, -1, -1, 1]}'
MOEBIUS_TWIST = '"1": {"rows": 2, "cols": 2, "entries": [1, 1, 1, -1]}'
ZERO = '{"rows": 2, "cols": 2, "entries": [0, 0, 0, 0]}'


def test_each_degree_has_one_spelling(tmp_path):
    # were "01" read as "1", the later of two matrices for one degree
    # would silently replace the other
    text = load("s1-moebius")
    for old, new, what in [
        (MOEBIUS_D1, f'{MOEBIUS_D1}, "01": {ZERO}', "morse.differentials"),
        (MOEBIUS_TWIST, f'{MOEBIUS_TWIST}, "01": {ZERO}', "twist 'moebius'"),
        (MOEBIUS_D1, MOEBIUS_D1.replace('"1"', '"01"'), "morse.differentials"),
    ]:
        assert old in text
        bad = text.replace(old, new)
        message = f"{what} key must be an integer, got '01'"
        with pytest.raises(DocumentError) as exc:
            parse_document(bad)
        assert str(exc.value) == message
        p = tmp_path / "leading-zero.json"
        p.write_text(bad)
        assert run_cli("morse", str(p)) == (2, "", f"error: {message}\n")
    for bad in ("rp:03", "sphere:00", "sphere:01"):
        with pytest.raises(DocumentError, match=r"^space: dimension must be an integer, got '0"):
            parse_space(bad)
    assert parse_space("rp:10") == RealProjective(10)


def test_long_space_tag_gives_the_degree_message():
    with pytest.raises(DocumentError) as exc:
        parse_space("rp:" + "9" * 5000)
    assert str(exc.value) == f"space: dimension must be at most {MAX_DEGREE}, got 5000 digits"


@pytest.mark.parametrize(
    ("old", "new", "key"),
    [
        ('"format": 1,', '"format": 1, "format": 1,', "format"),
        (MOEBIUS_D1, MOEBIUS_D1.replace('"rows": 2,', '"rows": 2, "rows": 2,'), "rows"),
        (MOEBIUS_D1, f"{MOEBIUS_D1}, {MOEBIUS_D1}", "1"),
        (MOEBIUS_D1, f'{MOEBIUS_D1}, "1": {ZERO}', "1"),
        (MOEBIUS_TWIST, f'{MOEBIUS_TWIST}, "1": {ZERO}', "1"),
    ],
    ids=["top-level", "matrix", "differentials-equal", "differentials", "twist"],
)
def test_duplicate_keys_are_refused(tmp_path, old, new, key):
    text = load("s1-moebius")
    assert old in text
    bad = text.replace(old, new, 1)
    message = f"invalid JSON: duplicate key {key!r}"
    with pytest.raises(DocumentError) as exc:
        parse_document(bad)
    assert str(exc.value) == message
    p = tmp_path / "duplicate.json"
    p.write_text(bad)
    for command in ("audit", "morse"):
        assert run_cli(command, str(p)) == (2, "", f"error: {message}\n")

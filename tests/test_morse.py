import json
from random import Random

import pytest

from mbaudit import (
    AbelianGroup,
    BundleDescriptor,
    InconsistentTwistError,
    IntegerMatrix,
    MorseData,
    OrientationCharacter,
    SignTwist,
    Sphere,
    morse_homology,
    parse_document,
    stabilize,
    thom_pair_homology,
)

from helpers import entrywise_product


def M(rows):
    return IntegerMatrix.from_rows(rows)


def circle_two_points():
    return MorseData([("max", 1), ("min", 0)], {1: M([[0]])})


def circle_wavy():
    # two minima, two maxima, every matrix entry a single trajectory
    return MorseData(
        [("min-a", 0), ("min-b", 0), ("max-a", 1), ("max-b", 1)],
        {1: M([[1, -1], [-1, 1]])},
    )


def test_two_point_circle():
    h = morse_homology(circle_two_points())
    assert h.group(0) == AbelianGroup(1)
    assert h.group(1) == AbelianGroup(1)


def test_wavy_circle_same_homology():
    assert morse_homology(circle_wavy()) == morse_homology(circle_two_points())


def test_single_generator():
    h = morse_homology(MorseData([("pt", 0)]))
    assert h.group(0) == AbelianGroup(1)
    assert h.top_degree == 0


def test_index_gaps_are_zero_differentials():
    data = MorseData([("a", 0), ("c", 2)])
    h = morse_homology(data)
    assert h.group(0) == AbelianGroup(1)
    assert h.group(1) == AbelianGroup(0)
    assert h.group(2) == AbelianGroup(1)


def test_perfect_torus_model():
    data = MorseData(
        [("m", 0), ("s1", 1), ("s2", 1), ("M", 2)],
        {1: IntegerMatrix.zeros(1, 2), 2: IntegerMatrix.zeros(2, 1)},
    )
    h = morse_homology(data)
    assert [g.free_rank for g in h.groups] == [1, 2, 1]


def test_validation_errors():
    with pytest.raises(ValueError):
        MorseData([])
    with pytest.raises(ValueError):
        MorseData([("a", 0), ("a", 1)])  # duplicate label
    with pytest.raises(ValueError):
        MorseData([("a", -1)])
    with pytest.raises(ValueError):
        MorseData([("a", 0), ("b", 1)], {1: IntegerMatrix.zeros(2, 2)})
    with pytest.raises(ValueError):
        MorseData([("a", 0), ("b", 1)], {2: IntegerMatrix.zeros(0, 0)})
    with pytest.raises(ValueError, match="differential key True"):
        MorseData([("a", 0), ("b", 1)], {True: IntegerMatrix(1, 1, (2,))})


def test_raw_dd_violation_is_a_value_error():
    with pytest.raises(ValueError):
        MorseData(
            [("a", 0), ("b", 1), ("c", 2)],
            {1: M([[1]]), 2: M([[1]])},
        )


def test_sign_twist_validation():
    with pytest.raises(ValueError):
        SignTwist({1: M([[1, 0]])})


def test_stabilize_identity_and_plain_shift():
    data = circle_wavy()
    same = stabilize(data, 0)
    assert same == data
    shifted = stabilize(data, 2)
    assert shifted.max_index == 3
    h = morse_homology(shifted)
    assert h == morse_homology(data).shifted(2)


def test_stabilize_key_and_shape_mismatch():
    data = circle_wavy()
    with pytest.raises(ValueError):
        stabilize(data, 1, SignTwist({2: M([[1, 1], [1, 1]])}))
    with pytest.raises(ValueError):
        stabilize(data, 1, SignTwist({1: M([[1, 1]])}))
    with pytest.raises(ValueError):
        stabilize(data, -1)


def test_moebius_twist_gives_twisted_pair_homology():
    data = circle_wavy()
    moebius = SignTwist({1: M([[1, 1], [1, -1]])})
    twisted = stabilize(data, 1, moebius)
    h = morse_homology(twisted)
    assert h.group(1) == AbelianGroup(0, (2,))
    assert h.top_degree == 1
    bundle = BundleDescriptor(Sphere(1), 1, OrientationCharacter.NONTRIVIAL)
    assert h == thom_pair_homology(bundle)
    # all-plus twist instead reproduces the orientable (plain shift) answer
    plain = morse_homology(stabilize(data, 1))
    assert plain == morse_homology(data).shifted(1)


def test_inconsistent_twist_detected():
    data = MorseData(
        [("a", 0), ("b1", 1), ("b2", 1), ("c", 2)],
        {1: M([[1, -1]]), 2: M([[1], [1]])},
    )
    bad = SignTwist({1: M([[1, -1]]), 2: M([[1], [1]])})
    with pytest.raises(InconsistentTwistError):
        stabilize(data, 1, bad)
    # flipping compatibly on both sides is fine
    good = SignTwist({1: M([[1, -1]]), 2: M([[1], [-1]])})
    out = stabilize(data, 1, good)
    assert morse_homology(out) == morse_homology(data).shifted(1)


def test_sign_gauge_invariance_by_hand():
    data = circle_wavy()
    base = morse_homology(data)
    # flip the generator max-a: negate its column in d_1
    flipped = MorseData(
        data.generators, {1: M([[-1, -1], [1, 1]])}
    )
    assert morse_homology(flipped) == base
    # flip min-b: negate its row in d_1
    flipped2 = MorseData(data.generators, {1: M([[1, -1], [1, -1]])})
    assert morse_homology(flipped2) == base


def test_stabilize_composition_law():
    rng = Random(43)
    data = circle_wavy()
    d1 = dict(data.differentials)[1]
    for _ in range(50):
        s1 = SignTwist({1: IntegerMatrix(2, 2, [rng.choice([1, -1]) for _ in range(4)])})
        s2_m = IntegerMatrix(2, 2, [rng.choice([1, -1]) for _ in range(4)])
        r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
        once = stabilize(data, r1, s1)
        twice = stabilize(once, r2, SignTwist({1 + r1: s2_m}))
        combined = SignTwist({1: entrywise_product(dict(s1.signs)[1], s2_m)})
        assert twice == stabilize(data, r1 + r2, combined)
    assert d1 == dict(data.differentials)[1]  # inputs never mutated


def test_to_chain_complex_returns_the_complex_checked_on_build():
    data = circle_wavy()
    cx = data.to_chain_complex()
    assert data.to_chain_complex() is cx
    assert cx.ranks == (2, 2)
    assert cx.boundaries == (M([[1, -1], [-1, 1]]),)


def test_stored_complex_is_not_part_of_the_value():
    audited, fresh = circle_wavy(), circle_wavy()
    morse_homology(audited)
    assert MorseData.__match_args__ == ("generators", "differentials")
    assert audited == fresh
    assert hash(audited) == hash(fresh) == hash((fresh.generators, fresh.differentials))
    assert repr(audited) == repr(fresh) == (
        "MorseData(generators=(('min-a', 0), ('min-b', 0), ('max-a', 1), ('max-b', 1)), "
        "differentials=((1, IntegerMatrix(rows=2, cols=2, entries=(1, -1, -1, 1))),))"
    )


def _matrix_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]), "entries": [e for r in rows for e in r]}


# degrees 0..4 with ranks 1, 2, 2, 2, 1; every composite d_k d_{k+1} is zero
DD_ZERO = {
    1: [[0, 0]],
    2: [[1, -1], [1, -1]],
    3: [[1, 2], [1, 2]],
    4: [[2], [-1]],
}


@pytest.mark.parametrize("rank", [0, 2])
def test_each_complex_is_checked_once(monkeypatch, rank):
    ranks = [1, 2, 2, 2, 1]
    top = len(ranks) - 1
    doc = {
        "format": 1,
        "ambient": {
            "ranks": ranks,
            "boundaries": [_matrix_json(DD_ZERO[k]) for k in range(1, top + 1)],
        },
        "morse": {
            "generators": [
                {"label": f"g{k}.{i}", "index": k}
                for k in range(top + 1)
                for i in range(ranks[k])
            ],
            "differentials": {str(k): _matrix_json(d) for k, d in DD_ZERO.items()},
        },
    }
    products = []
    original = IntegerMatrix.__matmul__

    def counting(self, other):
        products.append((self.rows, self.cols, other.cols))
        return original(self, other)

    monkeypatch.setattr(IntegerMatrix, "__matmul__", counting)
    parsed = parse_document(json.dumps(doc))
    before = morse_homology(parsed.morse)
    stabilized = stabilize(parsed.morse, rank)
    after = morse_homology(stabilized)
    assert after == before.shifted(rank)
    # one product per consecutive pair of nonzero boundaries per complex (a
    # pair with a zero factor needs none): d_1 is zero, so ambient and Morse
    # block make top - 2 products each, and so does the stabilized block,
    # whose d_1..d_(rank + 1) are zero; taking a Morse block's homology
    # checks nothing again
    assert len(products) == 3 * (top - 2)


def test_untwisted_stabilization_is_a_shift():
    data = circle_wavy()
    shifted = stabilize(data, 3)
    assert shifted.differentials == ((4, dict(data.differentials)[1]),)
    # the same matrix object: no product was built
    assert dict(shifted.differentials)[4] is dict(data.differentials)[1]

"""Acceptance gate: eight end-to-end checks, one pass/fail line each.

Every comparison here is exact integer equality; there are no
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the criterion lines as they execute.
"""

from __future__ import annotations

import functools
from random import Random

from mbaudit import (
    AbelianGroup,
    BundleDescriptor,
    FailsNegativeCoefficient,
    Holds,
    IntegerChainComplex,
    IntegerMatrix,
    IntPoly,
    MorseData,
    OrientationCharacter,
    Point,
    RealProjective,
    SignTwist,
    Sphere,
    Torus2,
    catalog_complex,
    check_inequalities,
    e2_consistency,
    homology,
    load_document,
    mb_polynomial,
    morse_homology,
    stabilize,
    thom_iso_check,
    thom_pair_homology,
)
from mbaudit.morsebott import MODES
from mbaudit.polyalg import ONE_PLUS_T, ZERO

from helpers import (
    FIXTURE_NAMES,
    FIXTURES,
    assert_profile_matches_oracle,
    entrywise_product,
    euler_characteristic,
    random_complex,
    random_poly,
    run_cli,
)

TWISTED = OrientationCharacter.NONTRIVIAL
ORIENTABLE = OrientationCharacter.TRIVIAL


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return deco


def fixture_data(name: str):
    return load_document(FIXTURES / f"{name}.json")


@criterion(1, "counterexample reproduction, untwisted mode")
def test_criterion_1_untwisted_counterexample():
    code, out, _ = run_cli("audit", "rp5-counterexample", "--mode", "untwisted")
    assert code == 1
    assert "MB_t = 1 + t + t^4 + t^5" in out
    assert "P_t = 1 + t^5" in out
    assert "verdict: FailsNegativeCoefficient at degree 2, Q = t - t^2 + t^3" in out

    data = fixture_data("rp5-counterexample").morse_bott()
    mb = mb_polynomial(data, "untwisted")
    p = data.ambient_poincare()
    assert mb == IntPoly([1, 1, 0, 0, 1, 1])
    assert p == IntPoly([1, 0, 0, 0, 0, 1])
    assert check_inequalities(mb, p) == FailsNegativeCoefficient(2, IntPoly([0, 1, -1, 1]))


@criterion(2, "corrected audit, local mode")
def test_criterion_2_local_mode_holds():
    code, out, _ = run_cli("audit", "rp5-counterexample", "--mode", "local")
    assert code == 0
    assert "MB_t = 1 + t^5" in out
    assert "verdict: Holds, Q = 0" in out

    data = fixture_data("rp5-counterexample").morse_bott()
    mb = mb_polynomial(data, "local")
    assert mb == IntPoly([1, 0, 0, 0, 0, 1])
    assert check_inequalities(mb, data.ambient_poincare()) == Holds(ZERO)


@criterion(3, "Thom pair failure for the twisted line over the circle")
def test_criterion_3_thom_failure():
    code, out, _ = run_cli("thom", "sphere:1,1,twisted")
    assert code == 0
    assert "     1  Z/2" in out
    assert "THOM ISO: fails" in out
    code, out, _ = run_cli("thom", "sphere:1,1,orientable")
    assert code == 0
    assert "THOM ISO: holds" in out

    moebius = BundleDescriptor(Sphere(1), 1, TWISTED)
    pair = thom_pair_homology(moebius)
    # Independent oracle: the pair homology of the twisted line bundle
    # is the reduced homology of the projective plane, computed here
    # from its explicit one-cell-per-degree chain complex.
    plane = homology(
        IntegerChainComplex(
            (1, 1, 1),
            (IntegerMatrix(1, 1, [0]), IntegerMatrix(1, 1, [2])),
        )
    )
    for k in range(3):
        expected = plane.group(k)
        if k == 0:
            expected = AbelianGroup(expected.free_rank - 1, expected.torsion)
        assert pair.group(k) == expected
    assert not thom_iso_check(moebius).holds
    assert thom_iso_check(BundleDescriptor(Sphere(1), 1, ORIENTABLE)).holds


@criterion(4, "stabilization matches the disc/sphere pair")
def test_criterion_4_stabilization_identity():
    doc = fixture_data("s1-moebius")
    twisted = morse_homology(stabilize(doc.morse, 1, doc.twists["moebius"]))
    pair = thom_pair_homology(BundleDescriptor(Sphere(1), 1, TWISTED))
    for k in range(max(twisted.top_degree, pair.top_degree) + 1):
        assert twisted.group(k) == pair.group(k)

    plain = morse_homology(stabilize(doc.morse, 1))
    shifted = homology(catalog_complex(Sphere(1))).shifted(1)
    for k in range(max(plain.top_degree, shifted.top_degree) + 1):
        assert plain.group(k) == shifted.group(k)


@criterion(5, "E2 page ledger and the naive overcount")
def test_criterion_5_e2_ledger():
    data = fixture_data("rp5-counterexample").morse_bott()
    report = e2_consistency(data)
    assert report.total_free_rank == 2
    assert report.ambient_rank == 2
    assert report.rank_bound_ok
    assert report.euler_sum == 0
    assert report.ambient_euler == 0
    assert report.euler_ok
    assert e2_consistency(data, naive=True).total_free_rank == 4

    code, out, _ = run_cli("audit", "rp5-counterexample", "--naive")
    assert code == 1
    assert "E2 total free rank 2 | ambient free rank 2 | rank bound ok" in out
    assert "naive E2 (all characters untwisted) total free rank 4" in out


@criterion(6, "SNF homology agrees with the rational/mod-2 oracle")
def test_criterion_6_oracle_equivalence():
    shipped = [catalog_complex(Point())]
    for n in range(1, 7):
        shipped.append(catalog_complex(Sphere(n)))
        shipped.append(catalog_complex(RealProjective(n)))
        shipped.append(catalog_complex(RealProjective(n), TWISTED))
    shipped.append(catalog_complex(Sphere(1), TWISTED))
    shipped.append(catalog_complex(Torus2()))
    shipped.append(catalog_complex(Torus2(), TWISTED))
    for name in FIXTURE_NAMES:
        doc = fixture_data(name)
        if doc.morse is not None:
            shipped.append(doc.morse.to_chain_complex())
    for cx in shipped:
        assert_profile_matches_oracle(cx, homology(cx))

    rng = Random(60993)
    for _ in range(100):
        cx, expected = random_complex(rng, max_rank=8)
        assert sum(cx.ranks) <= 8
        got = homology(cx)
        assert got == expected
        assert_profile_matches_oracle(cx, got)


def _gauge_twist(data: MorseData, eps: dict[str, int]) -> SignTwist:
    per_index: dict[int, list[str]] = {}
    for label, index in data.generators:
        per_index.setdefault(index, []).append(label)
    signs = {}
    for k, _ in data.differentials:
        rows = per_index.get(k - 1, [])
        cols = per_index.get(k, [])
        signs[k] = IntegerMatrix(
            len(rows), len(cols), [eps[r] * eps[c] for r in rows for c in cols]
        )
    return SignTwist(signs)


@criterion(7, "algebraic property suite")
def test_criterion_7_property_suite():
    rng = Random(41117)

    # (a) division route vs alternating partial sums, 500 pairs agreeing
    # at t = -1; (b) Holds verdicts reconstruct MB = P + (1+t)Q.
    for _ in range(500):
        p = random_poly(rng)
        mb = p + ONE_PLUS_T * random_poly(rng)
        assert mb.evaluate(-1) == p.evaluate(-1)
        verdict = check_inequalities(mb, p)
        diff = mb - p
        width = max(len(diff.coeffs) - 1, 0)
        alt = [
            sum((-1) ** (k - i) * diff.coeffs[i] for i in range(k + 1))
            for k in range(width)
        ]
        quotient = IntPoly(alt)
        assert ONE_PLUS_T * quotient == diff
        if all(c >= 0 for c in alt):
            assert verdict == Holds(quotient)
            assert p + ONE_PLUS_T * verdict.quotient == mb
        else:
            offending = min(k for k, c in enumerate(alt) if c < 0)
            assert verdict == FailsNegativeCoefficient(offending, quotient)

    for _ in range(200):
        p = random_poly(rng)
        q = IntPoly([rng.randint(0, 5) for _ in range(rng.randint(0, 7))])
        mb = p + ONE_PLUS_T * q
        verdict = check_inequalities(mb, p)
        assert verdict == Holds(q)
        assert p + ONE_PLUS_T * verdict.quotient == mb

    # (c) the counting polynomial evaluated at -1 is the ambient Euler
    # characteristic in both modes, on every fixture.
    for name in FIXTURE_NAMES:
        data = fixture_data(name).morse_bott()
        chi = euler_characteristic(data.ambient_homology())
        for mode in MODES:
            assert mb_polynomial(data, mode).evaluate(-1) == chi

    # (d) flipping generator signs (a gauge twist) never changes Morse
    # homology.
    for name in ("s1-moebius", "torus-perfect"):
        data = fixture_data(name).morse
        base = morse_homology(data)
        labels = [label for label, _ in data.generators]
        for _ in range(20):
            eps = {label: rng.choice([1, -1]) for label in labels}
            assert morse_homology(stabilize(data, 0, _gauge_twist(data, eps))) == base

    # (e) stabilizing twice is one stabilization by the summed rank with
    # the entrywise product twist.
    ladder = MorseData(
        [("a", 0), ("b1", 1), ("b2", 1), ("c", 2)],
        {
            1: IntegerMatrix(1, 2, [1, -1]),
            2: IntegerMatrix(2, 1, [1, 1]),
        },
    )
    subjects = [fixture_data("s1-moebius").morse, fixture_data("torus-perfect").morse, ladder]
    for data in subjects:
        labels = [label for label, _ in data.generators]
        for _ in range(10):
            r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
            t1 = _gauge_twist(data, {lab: rng.choice([1, -1]) for lab in labels})
            once = stabilize(data, r1, t1)
            t2 = _gauge_twist(once, {lab: rng.choice([1, -1]) for lab in labels})
            combined = SignTwist(
                {k: entrywise_product(s, dict(t2.signs)[k + r1]) for k, s in t1.signs}
            )
            assert stabilize(once, r2, t2) == stabilize(data, r1 + r2, combined)


@criterion(8, "classical regressions are perfect")
def test_criterion_8_classical_regressions():
    for name in ("s2-height", "torus-perfect"):
        data = fixture_data(name).morse_bott()
        verdict = check_inequalities(mb_polynomial(data), data.ambient_poincare())
        assert verdict == Holds(ZERO)
        code, out, _ = run_cli("audit", name)
        assert code == 0
        assert "verdict: Holds, Q = 0" in out

    data = fixture_data("rp5-morse").morse_bott()
    mb = mb_polynomial(data)
    assert mb == IntPoly([1, 1, 1, 1, 1, 1])
    verdict = check_inequalities(mb, data.ambient_poincare())
    assert verdict == Holds(IntPoly([0, 1, 0, 1]))
    assert ONE_PLUS_T * verdict.quotient == IntPoly([0, 1, 1, 1, 1])
    code, out, _ = run_cli("audit", "rp5-morse")
    assert code == 0
    assert "verdict: Holds, Q = t + t^3" in out

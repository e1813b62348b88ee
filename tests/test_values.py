"""Value semantics of every data class: repr, ==, hash, match, immutability.

One sample per class, built twice by its factory, so each check runs
against a fresh equal instance.
"""

import os
import subprocess
import sys

import pytest

from helpers import REPO
from mbaudit import (
    AbelianGroup,
    AuditDocument,
    BundleDescriptor,
    CriticalSubmanifold,
    E2Report,
    Explicit,
    FailsNegativeCoefficient,
    FailsNotDivisible,
    Holds,
    HomologyProfile,
    IntegerChainComplex,
    IntegerMatrix,
    IntPoly,
    MorseBottData,
    MorseData,
    OrientationCharacter,
    Point,
    RealProjective,
    SignTwist,
    SmithNormalForm,
    Sphere,
    ThomIsoReport,
    Torus2,
)

TWISTED = OrientationCharacter.NONTRIVIAL
TWISTED_REPR = "<OrientationCharacter.NONTRIVIAL: 'twisted'>"
TRIVIAL_REPR = "<OrientationCharacter.TRIVIAL: 'orientable'>"

SAMPLES = [
    (
        lambda: IntPoly([1, -2, 3, 0]),
        "IntPoly(coeffs=(1, -2, 3))",
    ),
    (
        lambda: IntegerMatrix(2, 2, [1, 0, 0, -1]),
        "IntegerMatrix(rows=2, cols=2, entries=(1, 0, 0, -1))",
    ),
    (
        lambda: SmithNormalForm((1, 2), 2),
        "SmithNormalForm(factors=(1, 2), rank=2)",
    ),
    (
        lambda: IntegerChainComplex([1, 1], [IntegerMatrix(1, 1, [2])]),
        "IntegerChainComplex(ranks=(1, 1), "
        "boundaries=(IntegerMatrix(rows=1, cols=1, entries=(2,)),))",
    ),
    (
        lambda: AbelianGroup(1, [2, 4]),
        "AbelianGroup(free_rank=1, torsion=(2, 4))",
    ),
    (
        lambda: HomologyProfile([AbelianGroup(1), AbelianGroup(0, [2]), AbelianGroup()]),
        "HomologyProfile(groups=(AbelianGroup(free_rank=1, torsion=()), "
        "AbelianGroup(free_rank=0, torsion=(2,))))",
    ),
    (Point, "Point()"),
    (lambda: Sphere(2), "Sphere(n=2)"),
    (lambda: RealProjective(5), "RealProjective(n=5)"),
    (Torus2, "Torus2()"),
    (
        lambda: Explicit(IntegerChainComplex([1])),
        "Explicit(complex=IntegerChainComplex(ranks=(1,), boundaries=()))",
    ),
    (
        lambda: CriticalSubmanifold(RealProjective(3), 1, TWISTED),
        f"CriticalSubmanifold(space=RealProjective(n=3), index=1, negative_character={TWISTED_REPR})",
    ),
    (
        lambda: MorseBottData(
            Sphere(2), [CriticalSubmanifold(Point(), 0), CriticalSubmanifold(Point(), 2)]
        ),
        "MorseBottData(ambient=Sphere(n=2), criticals=("
        f"CriticalSubmanifold(space=Point(), index=0, negative_character={TRIVIAL_REPR}), "
        f"CriticalSubmanifold(space=Point(), index=2, negative_character={TRIVIAL_REPR})))",
    ),
    (
        lambda: Holds(IntPoly([0, 1])),
        "Holds(quotient=IntPoly(coeffs=(0, 1)))",
    ),
    (lambda: FailsNotDivisible(-2), "FailsNotDivisible(chi_gap=-2)"),
    (
        lambda: FailsNegativeCoefficient(2, IntPoly([0, 1, -1, 1])),
        "FailsNegativeCoefficient(degree=2, quotient=IntPoly(coeffs=(0, 1, -1, 1)))",
    ),
    (
        lambda: E2Report(
            total_free_rank=4, ambient_rank=2, rank_bound_ok=True,
            euler_sum=0, ambient_euler=0, euler_ok=True,
        ),
        "E2Report(total_free_rank=4, ambient_rank=2, rank_bound_ok=True, "
        "euler_sum=0, ambient_euler=0, euler_ok=True)",
    ),
    (
        lambda: BundleDescriptor(Sphere(1), 1, TWISTED),
        f"BundleDescriptor(base=Sphere(n=1), rank=1, character={TWISTED_REPR})",
    ),
    (
        lambda: ThomIsoReport(False, HomologyProfile([AbelianGroup(0, [2])]), HomologyProfile()),
        "ThomIsoReport(holds=False, pair=HomologyProfile(groups=("
        "AbelianGroup(free_rank=0, torsion=(2,)),)), shifted_base=HomologyProfile(groups=()))",
    ),
    (
        lambda: MorseData([("min", 0), ("max", 1)], {1: IntegerMatrix(1, 1, [0])}),
        "MorseData(generators=(('min', 0), ('max', 1)), "
        "differentials=((1, IntegerMatrix(rows=1, cols=1, entries=(0,))),))",
    ),
    (
        lambda: SignTwist({1: IntegerMatrix(1, 1, [-1])}),
        "SignTwist(signs=((1, IntegerMatrix(rows=1, cols=1, entries=(-1,))),))",
    ),
    (
        lambda: AuditDocument(Sphere(1), bundle=BundleDescriptor(Sphere(1), 2)),
        "AuditDocument(ambient=Sphere(n=1), criticals=None, morse=None, twists={}, "
        f"bundle=BundleDescriptor(base=Sphere(n=1), rank=2, character={TRIVIAL_REPR}))",
    ),
]
IDS = [text.partition("(")[0] for _, text in SAMPLES]


def test_every_value_class_has_a_sample():
    assert len(set(IDS)) == len(SAMPLES) == 22


@pytest.mark.parametrize(("make", "text"), SAMPLES, ids=IDS)
def test_value_semantics(make, text):
    x, y = make(), make()
    assert repr(x) == text
    assert x == y and not x != y
    fields = type(x).__match_args__
    # the next sample in the list is of another class
    other, _ = SAMPLES[(IDS.index(type(x).__name__) + 1) % len(SAMPLES)]
    assert x != other()
    assert x.__eq__(other()) is NotImplemented
    if isinstance(x, AuditDocument):  # frozen, but its twists are a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        values = tuple(getattr(x, f) for f in fields)
        assert hash(x) == hash(y) == hash(values)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert x == y


def test_positional_match_on_spaces():
    match Sphere(3):
        case Sphere(n):
            assert n == 3
    match RealProjective(4):
        case RealProjective(n):
            assert n == 4
    cx = IntegerChainComplex([1])
    match Explicit(cx):
        case Explicit(inner):
            assert inner is cx
    assert Point.__match_args__ == Torus2.__match_args__ == ()


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, mbaudit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


STORE_ONLY = (Holds, FailsNotDivisible, FailsNegativeCoefficient, E2Report, ThomIsoReport, Explicit)


def test_store_only_classes_inherit_the_base_init():
    from mbaudit._value import Value

    assert "__init__" in Value.__dict__
    for cls in STORE_ONLY + (Point, Torus2):
        assert "__init__" not in cls.__dict__, cls.__name__


def test_base_init_binds_by_position_and_by_name():
    q = IntPoly([0, 1, -1, 1])
    fields = dict(
        total_free_rank=4, ambient_rank=2, rank_bound_ok=True,
        euler_sum=0, ambient_euler=0, euler_ok=True,
    )
    mixed = E2Report(4, 2, True, euler_sum=0, ambient_euler=0, euler_ok=True)
    assert E2Report(*fields.values()) == E2Report(**fields) == mixed
    assert (
        FailsNegativeCoefficient(2, q)
        == FailsNegativeCoefficient(degree=2, quotient=q)
        == FailsNegativeCoefficient(quotient=q, degree=2)
        == FailsNegativeCoefficient(2, quotient=q)
    )
    assert FailsNegativeCoefficient(quotient=q, degree=2).__match_args__ == ("degree", "quotient")
    assert Point() == Point()


@pytest.mark.parametrize(
    ("args", "kwargs"),
    [
        ((2,), {}),  # missing
        ((2, IntPoly([1]), 3), {}),  # extra
        ((2,), {"quotient": IntPoly([1]), "chi_gap": 0}),  # unknown
        ((), {"degree": 2}),  # missing, given by name
        ((2, IntPoly([1])), {"degree": 2}),  # given twice
        ((2,), {"degree": 2}),  # given twice, one missing
    ],
    ids=["missing", "extra", "unknown", "missing-named", "twice", "twice-and-missing"],
)
def test_base_init_refuses_a_bad_field_list(args, kwargs):
    message = r"^FailsNegativeCoefficient\(degree, quotient\) takes each field once$"
    with pytest.raises(TypeError, match=message):
        FailsNegativeCoefficient(*args, **kwargs)


def test_fieldless_values_take_no_arguments():
    for cls in (Point, Torus2):
        for args, kwargs in [((1,), {}), ((), {"n": 1})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

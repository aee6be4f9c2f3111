"""The known defects of ROADMAP.md that reproduce in-process, one test
each, asserting the right behaviour.

Each test is marked xfail(strict=True): it fails today, and the change
that fixes its defect turns it XPASS, which strict mode reports as a
failure, so that change deletes the marker.  raises=AssertionError keeps
any other error (a renamed function, a new exception) a plain failure.
"""

from fractions import Fraction

import pytest

from harmonica import registry, reduction
from harmonica.cli import main
from harmonica.core import Point
from harmonica.reduction import DegenerateStep, InconsistentOrders, MenelaosGon


def known_defect(number: int, direction: int):
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"ROADMAP known defect {number}, fixed by direction {direction}",
    )


def check_exit(tmp_path, capsys, scene: str, *options: str) -> int:
    path = tmp_path / "scene.hgeo"
    path.write_text(scene)
    code = main(["check", str(path), *options])
    capsys.readouterr()
    return code


@known_defect(1, 1)
@pytest.mark.parametrize("seed", [22, 63])
def test_float_ngon_bisectors_never_say_false_silently(seed):
    # trials 22 and 63 of `verify bisectors-ngon --seed 0`: a drawn gon
    # with a collinear vertex triple, whose float reduction reports
    # pseudo_concurrent false with a ratio product of 1
    try:
        passed, detail = registry.run_trial("bisectors-ngon", seed)
    except DegenerateStep:
        return
    assert passed, detail


@known_defect(2, 2)
def test_gon_with_a_collinear_vertex_triple_has_one_verdict():
    # c3.hgeo: A1, A2 and A3 lie on y = -2, and order (4,) keeps all
    # three in its final triangle
    F = Fraction
    vertices = [(-2, -2), (-3, -2), (-1, -2), (-2, 1)]
    cuts = [(F(1, 2), -2), (0, -2), (F(-9, 7), F(-8, 7)), (-2, 3)]
    gon = MenelaosGon(
        tuple(Point.affine(*v) for v in vertices),
        tuple(Point.affine(*b) for b in cuts),
    )
    try:
        reduction.is_pseudo_collinear(gon, "exhaustive")
    except InconsistentOrders as exc:
        raise AssertionError(f"orders disagree: {exc}") from None
    except DegenerateStep:
        pass


FAR = """\
point A = (100000, 100000)
point B = (100003, 100000)
point C = (100000, 100004)
assert collinear(A, B, C)
"""


@known_defect(3, 9)
def test_float_check_refutes_a_false_claim_far_from_the_origin(tmp_path, capsys):
    # far.hgeo: the witness determinant is 12, eps times the permanent 60
    exact = check_exit(tmp_path, capsys, FAR)
    assert check_exit(tmp_path, capsys, FAR, "--backend", "float") == exact == 1


FAR11 = """\
point A1 = (10000000, 10000000)
point A2 = (10000004, 10000000)
point A3 = (10000005, 10000003)
point A4 = (10000002, 10000005)
point A5 = (9999999, 10000003)
point O = (10000002, 10000002)
line g1 = join(A1, O)
line g2 = join(A2, O)
line g3 = join(A3, O)
line g4 = join(A4, O)
line g5 = join(A5, O)
gon P = [A1, A2, A3, A4, A5]
assert ceva_product(P, g1, g2, g3, g4, g5) = 1
"""


@known_defect(5, 9)
def test_float_check_confirms_a_true_claim_far_from_the_origin(tmp_path, capsys):
    # far11.hgeo, scenes/figure11.hgeo moved by (10^7, 10^7): the float
    # product is 1.000000001810281, off by more than eps
    exact = check_exit(tmp_path, capsys, FAR11)
    assert check_exit(tmp_path, capsys, FAR11, "--backend", "float") == exact == 0

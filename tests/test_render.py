"""Figure rendering: viewport math, clipping, styling, determinism."""

import re
from pathlib import Path

import pytest

from harmonica import render as render_module
from harmonica.cli import main
from harmonica.core import EXACT, float_backend
from harmonica.dsl import EvaluationError, evaluate, parse
from harmonica.render import Viewport, render_scene

# Every coordinate sits inside the explicit viewport used below, so
# marker and stroke counts are exact.
BASE_SCENE = """\
point A = (0, 0)
point B = (4, 0)
point C = (1, 3)
line ab = join(A, B)
line ac = join(A, C)
line bc = join(B, C)
line g = (1 : -1 : 0)
line h = fourth_harmonic(A; ab, ac; g)
point M = meet(g, bc)
gon T = [A, B, C]
"""

VIEW = Viewport(-1.0, -1.0, 5.0, 4.0)

SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"


def render(text=BASE_SCENE, fmt="svg", viewport=VIEW):
    return render_scene(parse(text), fmt=fmt, viewport=viewport)


def implicit_box(text):
    """(x0, y0, x1, y1) of the box render_scene picks without a
    viewport."""
    ast = parse(text)
    _, markers = render_module._collect(ast, evaluate(ast).bindings)
    vp = render_module._box_around(markers)
    return (vp.x0, vp.y0, vp.x1, vp.y1)


class TestViewport:
    def test_parse(self):
        vp = Viewport.parse("-2,-1,6,6")
        assert (vp.x0, vp.y0, vp.x1, vp.y1) == (-2.0, -1.0, 6.0, 6.0)

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="x0,y0,x1,y1"):
            Viewport.parse("1,2,3")

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Viewport.parse("a,b,c,d")

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="positive extent"):
            Viewport(0, 0, 0, 5)

    @pytest.mark.parametrize(
        "corners",
        [
            (-float("inf"), -float("inf"), float("inf"), float("inf")),
            (0.0, 0.0, 1.0, float("inf")),
            (-1e308, -1e308, 1e308, 1e308),  # the extent overflows
        ],
    )
    def test_unbounded_box_rejected(self, corners):
        with pytest.raises(ValueError, match="finite corners and extent"):
            Viewport(*corners)

    def test_bad_canvas_rejected(self):
        with pytest.raises(ValueError, match="positive size"):
            Viewport(0, 0, 1, 1, width=0)

    @pytest.mark.parametrize(
        "canvas",
        [
            {"width": float("inf")},
            {"width": 1e309},  # the literal overflows to inf
            {"height": float("inf")},
            {"width": float("nan")},
        ],
    )
    def test_unbounded_canvas_rejected(self, canvas):
        with pytest.raises(ValueError, match="finite, positive size"):
            Viewport(-1, -1, 1, 1, **canvas)

    def test_corner_mapping_flips_y(self):
        vp = Viewport(0, 0, 10, 10, width=100, height=200)
        assert vp.to_canvas(0, 0) == (0.0, 200.0)
        assert vp.to_canvas(10, 10) == (100.0, 0.0)
        assert vp.to_canvas(5, 5) == (50.0, 100.0)

    def test_contains_is_inclusive(self):
        vp = Viewport(0, 0, 1, 1)
        assert vp.contains(0, 0) and vp.contains(1, 1)
        assert not vp.contains(1.0001, 0.5)


class TestSvg:
    def test_one_marker_per_declared_point(self):
        svg = render()
        assert svg.count("<circle") == 4  # A, B, C, M

    def test_literal_points_filled_constructed_hollow(self):
        svg = render()
        assert svg.count('fill="black"') == 3
        # one hollow marker, on top of the background rect's white fill
        assert svg.count('fill="white"') == 2

    def test_labels_present(self):
        svg = render()
        for name in ("A", "B", "C", "M"):
            assert f">{name}</text>" in svg

    def test_derived_line_dashed(self):
        svg = render()
        assert svg.count("stroke-dasharray") == 1

    def test_line_and_segment_counts(self):
        # 5 declared lines + 3 gon sides, all crossing the box
        svg = render()
        assert svg.count("<line") == 8

    def test_marker_outside_viewport_clipped(self):
        svg = render(viewport=Viewport(-1.0, -1.0, 0.5, 0.5))
        assert svg.count("<circle") == 1  # only A remains
        assert ">B</text>" not in svg

    def test_line_outside_viewport_dropped(self):
        text = "point A = (0, 0)\npoint B = (1, 0)\nline l = join(A, B)\n"
        svg = render_scene(parse(text), viewport=Viewport(0, 5, 1, 6))
        assert "<line" not in svg

    def test_stroke_coordinates_stay_on_canvas(self):
        svg = render()
        for piece in svg.splitlines():
            if piece.startswith("<line"):
                coords = [
                    float(chunk.split('"')[1])
                    for chunk in piece.split()
                    if chunk.startswith(("x1=", "x2=", "y1=", "y2="))
                ]
                xs, ys = coords[::2], coords[1::2]
                assert all(-1e-6 <= x <= VIEW.width + 1e-6 for x in xs)
                assert all(-1e-6 <= y <= VIEW.height + 1e-6 for y in ys)

    def test_six_decimal_coordinates(self):
        svg = render()
        assert 'cx="' in svg
        value = svg.split('cx="')[1].split('"')[0]
        assert len(value.split(".")[1]) == 6

    def test_no_negative_zero(self):
        assert "-0.000000" not in render()

    def test_tiny_negative_end_prints_as_zero(self):
        # the stroke's left end lands at about -8e-15 on the canvas,
        # which rounds to a signed zero
        text = (
            "point A = (99999999999999999999999999999999, 1)\n"
            "point B = (0, 0)\n"
            "line l = join(A, B)\n"
        )
        svg = render_scene(parse(text))
        assert "-0.000000" not in svg
        assert '<line x1="480.000000" y1="240.000000" x2="0.000000"' in svg

    @pytest.mark.parametrize("name", ["exact", "float"])
    def test_no_shipped_scene_draws_a_negative_zero(self, name):
        # figure6 (float), figure7 (exact) and figure11 (both) each drew
        # one before the sign was dropped after rounding
        backend = float_backend() if name == "float" else EXACT
        for path in sorted(SCENE_DIR.glob("*.hgeo")):
            svg = render_scene(parse(path.read_text()), backend=backend)
            assert "-0.000000" not in svg, path.name

    def test_signed_zero_is_normalized_after_rounding(self):
        for value in (-0.0, -8e-15, -4.9e-7):
            assert render_module._fmt(value) == "0.000000"
        assert render_module._fmt(-5.1e-7) == "-0.000001"

    def test_background_rect(self):
        assert '<rect x="0" y="0"' in render()


class TestTikz:
    def test_one_draw_per_line_element(self):
        tikz = render(fmt="tikz")
        assert tikz.count("\\draw[") == 8
        assert tikz.count("\\filldraw[") == 4

    def test_braces_balanced(self):
        tikz = render(fmt="tikz")
        assert tikz.count("{") == tikz.count("}")

    def test_clip_header_and_env(self):
        tikz = render(fmt="tikz")
        assert tikz.startswith(
            "\\begin{tikzpicture}[x=0.02cm, y=-0.02cm]\n"
            "\\clip (0, 0) rectangle (480.000000, 480.000000);\n"
        )
        assert tikz.endswith("\\end{tikzpicture}\n")

    def test_dashed_style(self):
        tikz = render(fmt="tikz")
        assert tikz.count("\\draw[dashed]") == 1
        assert tikz.count("\\draw[solid]") == 7

    def test_hollow_marker_fill(self):
        tikz = render(fmt="tikz")
        assert tikz.count("fill=white") == 1
        assert tikz.count("fill=black") == 3

    def test_underscore_in_name_is_escaped(self):
        tikz = render("point A_1 = (0, 0)\n", fmt="tikz")
        assert tikz.endswith(" {A\\_1};\n\\end{tikzpicture}\n")
        # the svg text is not LaTeX and keeps the name as written
        assert ">A_1</text>" in render("point A_1 = (0, 0)\n")


class TestDeterminism:
    def test_svg_byte_identical(self):
        assert render() == render()

    def test_tikz_byte_identical(self):
        assert render(fmt="tikz") == render(fmt="tikz")

    def test_auto_viewport_byte_identical(self):
        ast = parse(BASE_SCENE)
        assert render_scene(ast) == render_scene(ast)


class TestAutoViewport:
    def test_render_scene_evaluates_once(self, monkeypatch):
        calls = []
        evaluate = render_module.evaluate

        def counting(ast, backend):
            calls.append(ast)
            return evaluate(ast, backend)

        monkeypatch.setattr(render_module, "evaluate", counting)
        ast = parse(BASE_SCENE)
        for fmt in ("svg", "tikz"):
            for viewport in (None, VIEW):
                calls.clear()
                render_scene(ast, fmt=fmt, viewport=viewport)
                assert calls == [ast]

    def test_implicit_box_is_auto_viewport(self):
        ast = parse(BASE_SCENE)
        _, markers = render_module._collect(ast, evaluate(ast).bindings)
        box = render_module._box_around(markers)
        for fmt in ("svg", "tikz"):
            assert render_scene(ast, fmt=fmt) == render_scene(
                ast, fmt=fmt, viewport=box
            )

    def test_raising_assertion_fails_render(self):
        text = BASE_SCENE + "point D = (2, 5)\nassert harmonic(A, B; C, D)\n"
        with pytest.raises(EvaluationError, match="not on the carrier"):
            render_scene(parse(text))

    def test_square_with_margin(self):
        text = "point A = (0, 0)\npoint B = (10, 0)\n"
        assert implicit_box(text) == (-1.5, -6.5, 11.5, 6.5)

    def test_degenerate_cloud_gets_unit_span(self):
        x0, _, x1, _ = implicit_box("point A = (3, 3)\n")
        assert x1 - x0 == pytest.approx(1.3)

    def test_no_points_default_box(self):
        box = implicit_box("line l = (1 : 0 : 0)\n")
        assert box == (-5.0, -5.0, 5.0, 5.0)

    def test_infinite_point_ignored(self):
        text = (
            "point A = (0, 0)\npoint B = (10, 0)\n"
            "point I = (1 : 0 : 0)\n"
        )
        x0, _, x1, _ = implicit_box(text)
        assert (x0, x1) == (-1.5, 11.5)


class TestEdges:
    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_scene(parse("point A = (0, 0)\n"), fmt="pdf")

    def test_infinite_point_renders_nothing(self):
        text = "point I = (0 : 1 : 0)\n"
        svg = render_scene(parse(text), viewport=VIEW)
        assert "<circle" not in svg

    def test_gon_side_with_infinite_vertex_skipped(self):
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint I = (0 : 1 : 0)\n"
            "gon G = [A, B, I]\n"
        )
        svg = render_scene(parse(text), viewport=VIEW)
        # only the finite side A-B survives
        assert svg.count("<line") == 1

    def test_gon_side_between_equal_vertices_skipped(self):
        text = (
            "point A = (0, 0)\npoint B = (1, 0)\npoint C = (1, 0)\n"
            "gon G = [A, B, C]\n"
        )
        for fmt, stroke in (("svg", "<line"), ("tikz", "\\draw[")):
            figure = render_scene(parse(text), fmt=fmt, viewport=VIEW)
            # A-B and C-A; B-C has no length
            assert figure.count(stroke) == 2

    def test_float_backend_render(self):
        svg = render_scene(
            parse(BASE_SCENE), viewport=VIEW, backend=float_backend()
        )
        assert svg.count("<circle") == 4


_COORDINATE = re.compile(r"-?[0-9]+\.[0-9]+")


def _drawn(figure, stroke, marker, dashed):
    """The coordinate strings and style of each stroke, then of each
    marker, in the order the figure draws them."""
    lines = figure.splitlines()
    return (
        [
            (_COORDINATE.findall(line), dashed in line)
            for line in lines
            if line.startswith(stroke)
        ],
        [
            (_COORDINATE.findall(line)[:2], "white" in line)
            for line in lines
            if line.startswith(marker)
        ],
    )


@pytest.mark.parametrize(
    "path", sorted(SCENE_DIR.glob("*.hgeo")), ids=lambda p: p.name
)
def test_tikz_draws_the_svg_canvas(path):
    ast = parse(path.read_text())
    svg = _drawn(render_scene(ast), "<line ", "<circle ", "dasharray")
    tikz = _drawn(
        render_scene(ast, fmt="tikz"), "\\draw[", "\\filldraw[", "dashed"
    )
    assert svg == tikz
    assert svg[0] and svg[1]


# One far meet pushed the automatic box, and with it every TikZ
# coordinate, past 16383.99, the largest number TeX reads; the 3-4-5
# triangle near (1e5, 1e5) lies there whole.
FAR_MEET = """\
point A = (0, 0)
point B = (1, 0)
point C = (0, 1)
point D = (1, 20001/20000)
line ab = join(A, B)
line cd = join(C, D)
point P = meet(ab, cd)
"""

FAR_TRIANGLE = """\
point A = (100000, 100000)
point B = (100003, 100000)
point C = (100000, 100004)
assert collinear(A, B, C)
"""


@pytest.mark.parametrize(
    "text, strokes, markers",
    [(FAR_MEET, 2, 5), (FAR_TRIANGLE, 0, 3)],
    ids=["far-meet", "far-triangle"],
)
def test_far_scenes_render_on_the_canvas(text, strokes, markers):
    ast = parse(text)
    svg = render_scene(ast)
    assert (svg.count("<line "), svg.count("<circle ")) == (strokes, markers)
    head, body = render_scene(ast, fmt="tikz").split("\n", 1)
    assert head == "\\begin{tikzpicture}[x=0.02cm, y=-0.02cm]"
    assert (body.count("\\draw["), body.count("\\filldraw[")) == (
        strokes,
        markers,
    )
    numbers = [float(v) for v in _COORDINATE.findall(body)]
    assert len(numbers) == 2 + 4 * strokes + 4 * markers
    assert all(0 <= v <= 480 for v in numbers)


# a 10**308 coordinate is a finite float, but the box around two of
# them is not
FAR = "1" + "0" * 308


@pytest.mark.parametrize(
    "text, flags",
    [
        (BASE_SCENE, ["--viewport=-inf,-inf,inf,inf"]),
        (BASE_SCENE, ["--viewport=-1e308,-1e308,1e308,1e308"]),
        (f"point A = (-{FAR}, 0)\npoint B = ({FAR}, 0)\n", []),
    ],
    ids=["infinite", "overflowing", "auto"],
)
def test_cli_refuses_an_unbounded_viewport(capsys, tmp_path, text, flags):
    path = tmp_path / "scene.hgeo"
    path.write_text(text)
    for fmt in ("svg", "tikz"):
        code = main(["render", str(path), "--format", fmt, *flags])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: viewport box must have finite corners and extent\n"

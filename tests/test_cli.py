"""Command line behavior: exit codes, report shapes, determinism."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harmonica import cli, reduction
from harmonica.cli import _build_parser, _parse_order, _UsageError, main
from harmonica.core import EPS_ENV_VAR, float_backend
from harmonica.reduction import ReductionTrace

GOOD_SCENE = """\
point A = (0, 0)
point B = (4, 0)
point I = (1 : 0 : 0)
point M = conjugate(A, B; I)
assert harmonic(A, B; I, M)
"""

BAD_SCENE = """\
point A = (0, 0)
point B = (4, 0)
point C = (1, 3)
assert collinear(A, B, C)
"""

PENTAGON_SCENE = """\
point A1 = (0, 0)
point A2 = (4, 0)
point A3 = (5, 3)
point A4 = (2, 5)
point A5 = (-1, 3)
point O = (2, 2)
line g1 = join(A1, O)
line g2 = join(A2, O)
line g3 = join(A3, O)
line g4 = join(A4, O)
line g5 = join(A5, O)
gon P = [A1, A2, A3, A4, A5]
assert ceva_product(P, g1, g2, g3, g4, g5) = 1
"""

# A1 == A3 makes removing vertex 2 degenerate while vertex 1 reduces
# fine (to a False verdict: the cuts are generic).
SPIKE_SCENE = """\
point A1 = (0, 0)
point A2 = (4, 0)
point A3 = (0, 0)
point A4 = (2, 3)
point B1 = (1, 0)
point B2 = (3, 0)
point B3 = (1, 3/2)
point B4 = (1, 3/2)
gon G = [A1, A2, A3, A4]
assert menelaos_product(G, B1, B2, B3, B4) = 1
"""


@pytest.fixture
def scene_file(tmp_path):
    def write(text, name="scene.hgeo"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseOrder:
    def test_symbolic(self):
        assert _parse_order("first") == "first"
        assert _parse_order("exhaustive") == "exhaustive"

    def test_seeded(self):
        assert _parse_order("seed:9") == ("seed", 9)

    def test_explicit_indices(self):
        assert _parse_order("2,1,1") == (2, 1, 1)
        assert _parse_order("3") == (3,)

    def test_rejects_junk(self):
        with pytest.raises(_UsageError):
            _parse_order("backwards")
        with pytest.raises(_UsageError):
            _parse_order("seed:x")
        with pytest.raises(_UsageError):
            _parse_order("1,,2")
        with pytest.raises(_UsageError):
            _parse_order("seed:²")
        with pytest.raises(_UsageError):
            _parse_order("1,²")


class TestVerify:
    def test_single_theorem_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "two-pencils", "--trials", "5")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["command"] == "verify"
        assert report["passed"] is True
        assert report["results"][0]["theorem"] == "two-pencils"
        assert report["results"][0]["failures"] == []

    def test_all_theorems_one_trial(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--trials", "1")
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]) == 16

    def test_unknown_theorem_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "morley")
        assert code == 2
        assert "unknown theorem" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "two-pencils", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err == f"error: --trials must be at least 1, got {trials}\n"

    def test_float_only_with_exact_backend(self, capsys):
        code, _, err = run(
            capsys, "verify", "bisectors-triangle", "--backend", "exact"
        )
        assert code == 2
        assert "float backend only" in err

    def test_gon_size_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "ceva-ngon", "--trials", "3", "--n", "6"
        )
        assert code == 0

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", "desargues", "--trials", "4", "--seed", "3")
        second = run(capsys, "verify", "desargues", "--trials", "4", "--seed", "3")
        assert first == second

    def test_cor2_float_compares_lines_with_tolerance(self, capsys):
        # floatified pencils share their first line only up to roundoff
        code, out, _ = run(
            capsys, "verify", "cor2", "--backend", "float", "--trials", "20",
            "--seed", "0",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "cor2", "--trials", "2", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["passed"] is True

    def test_failures_carry_replayable_seeds(self, capsys, monkeypatch):
        import harmonica.generate as generate
        import harmonica.registry as registry

        def never_passes(config, backend, order):
            return False, {"forced": True}

        def stub_forcer(theorem, rng, spec, n):
            return {"theorem": theorem}

        entry = registry.TheoremEntry(
            "always-false", "test stub", "exact", never_passes
        )
        monkeypatch.setitem(registry.THEOREMS, "always-false", entry)
        monkeypatch.setitem(generate._FORCERS, "always-false", stub_forcer)
        code, out, _ = run(
            capsys, "verify", "always-false", "--trials", "3", "--seed", "7"
        )
        assert code == 1
        report = json.loads(out)
        failures = report["results"][0]["failures"]
        assert [f["trial"] for f in failures] == [0, 1, 2]
        assert [f["seed"] for f in failures] == [
            (7 * 1000003 + i) % 2**64 for i in range(3)
        ]


class TestCheck:
    def test_passing_scene(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        code, out, err = run(capsys, "check", path)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["command"] == "check"
        assert report["scene"] == path
        assert err == ""

    def test_failing_scene_names_the_assertion(self, capsys, scene_file):
        code, out, err = run(capsys, "check", scene_file(BAD_SCENE))
        assert code == 1
        assert "FAIL assertion 1 (line 4): collinear" in err
        assert "witness determinant" in err
        assert json.loads(out)["passed"] is False

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no/such/scene.hgeo")
        assert code == 2
        assert "cannot read scene" in err

    def test_syntax_error(self, capsys, scene_file):
        code, _, err = run(capsys, "check", scene_file("point A = (1,\n"))
        assert code == 2
        assert "scene error" in err

    def test_evaluation_error(self, capsys, scene_file):
        text = "point A = (0, 0)\npoint B = (0, 0)\nline l = join(A, B)\n"
        code, _, err = run(capsys, "check", scene_file(text))
        assert code == 2
        assert "evaluation error" in err

    def test_float_backend(self, capsys, scene_file):
        code, _, _ = run(
            capsys, "check", scene_file(GOOD_SCENE), "--backend", "float"
        )
        assert code == 0

    def test_literal_past_the_float_range(self, capsys, scene_file):
        path = scene_file(f"line l = ({'9' * 400} : 1 : 0)\n")
        code, out, err = run(capsys, "check", path, "--backend", "float")
        assert (code, out) == (2, "")
        assert err == (
            "evaluation error: line 1, column 6: a literal is past the float"
            " range\n"
        )
        # the exact lane holds it
        code, _, _ = run(capsys, "check", path)
        assert code == 0

    def test_figure9_float_completes_fourth_line_at_default_eps(
        self, capsys, monkeypatch
    ):
        # complete_fourth_line must test the floatified cevians with the
        # scene's backend, not exactly
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.delenv(EPS_ENV_VAR, raising=False)
        assert float_backend().eps == 1e-9
        code, out, err = run(
            capsys, "check", "scenes/figure9.hgeo", "--backend", "float"
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["assertions"]) == 6
        assert all(a["passed"] for a in report["assertions"])

    def test_shipped_figures_all_pass(self, capsys):
        from pathlib import Path

        scene_dir = Path(__file__).resolve().parent.parent / "scenes"
        scenes = sorted(scene_dir.glob("*.hgeo"))
        assert len(scenes) == 8
        for scene in scenes:
            code, _, _ = run(capsys, "check", str(scene))
            assert code == 0, scene.name


class TestReduce:
    def test_trace_emitted(self, capsys, scene_file):
        path = scene_file(PENTAGON_SCENE)
        code, out, _ = run(capsys, "reduce", path, "--mode", "ceva")
        assert code == 0
        trace = ReductionTrace.from_json_lines(out)
        assert trace.kind == "ceva"
        assert trace.verdict is True
        assert len(trace.steps) == 2

    def test_explicit_order(self, capsys, scene_file):
        path = scene_file(PENTAGON_SCENE)
        code, out, _ = run(capsys, "reduce", path, "--mode", "ceva", "--order", "3,2")
        assert code == 0
        assert ReductionTrace.from_json_lines(out).indices == (3, 2)

    def test_exhaustive_reports_agreement(self, capsys, scene_file):
        path = scene_file(PENTAGON_SCENE)
        code, _, err = run(
            capsys, "reduce", path, "--mode", "ceva", "--order", "exhaustive"
        )
        assert code == 0
        assert err == (
            "exhaustive: reduction orders agree; orders that remove the same"
            " slots were checked once\n"
        )

    def test_replay_round_trip(self, capsys, scene_file, tmp_path):
        path = scene_file(PENTAGON_SCENE)
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run(
            capsys, "reduce", path, "--mode", "ceva", "--out", str(trace_path)
        )
        assert code == 0
        code, out, _ = run(capsys, "reduce", "--replay", str(trace_path))
        assert code == 0
        confirmation = json.loads(out)
        assert confirmation["replay"] == "ok"
        assert confirmation["verdict"] is True

    @pytest.mark.parametrize(
        "data, flag, lane",
        [
            ("exact", None, "exact"),
            ("exact", "float", "float"),
            ("float", None, "float"),
        ],
    )
    def test_replay_runs_under_the_given_backend(
        self, capsys, scene_file, tmp_path, monkeypatch, data, flag, lane
    ):
        # without --backend a trace replays in its data's lane
        path = scene_file(PENTAGON_SCENE)
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run(
            capsys, "reduce", path, "--mode", "ceva", "--backend", data,
            "--out", str(trace_path),
        )
        assert code == 0
        lanes = []
        run_reduction = reduction._run_reduction

        def recorded(gon, indices, backend):
            lanes.append(backend.kind)
            return run_reduction(gon, indices, backend)

        monkeypatch.setattr(reduction, "_run_reduction", recorded)
        argv = ["reduce", "--replay", str(trace_path)]
        if flag is not None:
            argv += ["--backend", flag]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["replay"] == "ok"
        assert lanes == [lane]

    def test_tampered_trace_fails_replay(self, capsys, scene_file, tmp_path):
        path = scene_file(PENTAGON_SCENE)
        trace_path = tmp_path / "trace.jsonl"
        run(capsys, "reduce", path, "--mode", "ceva", "--out", str(trace_path))
        text = trace_path.read_text().replace('"verdict": true', '"verdict": false')
        trace_path.write_text(text)
        code, _, err = run(capsys, "reduce", "--replay", str(trace_path))
        assert code == 1
        assert "replay mismatch" in err

    @pytest.mark.parametrize(
        "line, path, value",
        [
            (2, ("index",), None),
            (4, ("verdict",), None),
            (1, ("gon", "vertices"), None),
            (2, ("vertex", "y"), None),
            (2, ("index",), "2"),
            (3, (), "5"),
            (4, ("verdict",), "yes"),
            (3, (), "{"),
            (1, ("gon",), []),
            (2, ("vertex", "w"), "1/0"),
            (1, ("kind",), "menelaos"),
            (1, ("schema",), 99),
        ],
        ids=[
            "no-step-index", "no-verdict", "no-vertices", "no-y",
            "string-index", "bare-number", "string-verdict", "not-json",
            "gon-not-an-object", "zero-denominator", "header-kind-not-the-gons",
            "unknown-schema",
        ],
    )
    def test_malformed_trace_is_a_usage_error(self, capsys, tmp_path, line, path, value):
        # path () replaces the whole line by value; else value None deletes
        # the key at path in that line's row, and any other value sets it
        scene = Path(__file__).resolve().parent.parent / "scenes" / "figure11.hgeo"
        code, out, _ = run(
            capsys, "reduce", str(scene), "--mode", "ceva", "--order", "exhaustive"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        if path:
            row = json.loads(lines[line - 1])
            target = row
            for key in path[:-1]:
                target = target[key]
            if value is None:
                del target[path[-1]]
            else:
                target[path[-1]] = value
            lines[line - 1] = json.dumps(row)
        else:
            lines[line - 1] = value
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "reduce", "--replay", str(trace_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: trace line {line}: ")
        assert err.count("\n") == 1

    def test_false_verdict_exits_one(self, capsys, scene_file):
        path = scene_file(SPIKE_SCENE)
        code, out, _ = run(
            capsys, "reduce", path, "--mode", "menelaos", "--order", "1"
        )
        assert code == 1
        assert ReductionTrace.from_json_lines(out).verdict is False

    def test_degenerate_order_exits_two_with_partial_trace(
        self, capsys, scene_file
    ):
        path = scene_file(SPIKE_SCENE)
        code, out, err = run(
            capsys, "reduce", path, "--mode", "menelaos", "--order", "2"
        )
        assert code == 2
        assert "degenerate step" in err
        partial = ReductionTrace.from_json_lines(out)
        assert partial.steps == []
        assert partial.verdict is None

    def test_scene_without_matching_assertion(self, capsys, scene_file):
        path = scene_file(PENTAGON_SCENE)
        code, _, err = run(capsys, "reduce", path, "--mode", "menelaos")
        assert code == 2
        assert "no menelaos assertion" in err

    def test_needs_scene_or_replay(self, capsys):
        code, _, err = run(capsys, "reduce")
        assert code == 2
        assert "needs a scene" in err


class TestRender:
    def test_svg_to_stdout(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        code, out, _ = run(capsys, "render", path)
        assert code == 0
        assert out.startswith("<svg ")
        assert out.count("<circle") == 3

    def test_tikz_format(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        code, out, _ = run(capsys, "render", path, "--format", "tikz")
        assert code == 0
        assert out.startswith("\\begin{tikzpicture}")

    def test_byte_identical_runs(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        assert run(capsys, "render", path) == run(capsys, "render", path)

    def test_viewport_flag_with_negative_corner(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        code, out, _ = run(capsys, "render", path, "--viewport=-2,-1,6,6")
        assert code == 0
        assert "<svg " in out

    def test_bad_viewport(self, capsys, scene_file):
        path = scene_file(GOOD_SCENE)
        code, _, err = run(capsys, "render", path, "--viewport", "1,2,3")
        assert code == 2
        assert "viewport" in err

    def test_every_box_renders_in_both_formats(self, capsys, scene_file):
        # tikz draws the canvas svg draws, so no box is too large for TeX
        far = scene_file(
            "point A = (99999999999999999999999999999999, 1)\n"
            "point B = (0, 0)\n"
            "line l = join(A, B)\n",
            name="far.hgeo",
        )
        good = scene_file(GOOD_SCENE)
        for argv in ((far,), (good,), (good, "--viewport=-1,-16384,1,1")):
            for fmt, stroke in (("svg", "<line"), ("tikz", "\\draw[")):
                code, out, err = run(capsys, "render", *argv, "--format", fmt)
                assert (code, err) == (0, "")
                assert out.count(stroke) == (argv[0] == far)

    def test_exact_line_past_the_float_range(self, capsys, scene_file):
        # drawn from its integer form over its largest entry: x = 0
        path = scene_file(f"line l = ({'9' * 400} : 1 : 0)\n")
        code, out, _ = run(capsys, "render", path)
        assert code == 0
        assert '<line x1="240.000000" y1="0.000000" x2="240.000000"' in out
        code, out, _ = run(capsys, "render", path, "--format", "tikz")
        assert code == 0
        assert "(240.000000, 0.000000) -- (240.000000, 480.000000);" in out
        code, out, err = run(capsys, "render", path, "--backend", "float")
        assert (code, out) == (2, "")
        assert err == (
            "evaluation error: line 1, column 6: a literal is past the float"
            " range\n"
        )

    def test_out_file(self, capsys, scene_file, tmp_path):
        path = scene_file(GOOD_SCENE)
        target = tmp_path / "figure.svg"
        code, out, _ = run(capsys, "render", path, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("<svg ")


class TestGen:
    def test_emits_config(self, capsys):
        code, out, _ = run(capsys, "gen", "desargues", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "gen"
        assert data["config"]["theorem"] == "desargues"

    def test_reproducible(self, capsys):
        first = run(capsys, "gen", "free-quad", "--seed", "42")
        second = run(capsys, "gen", "free-quad", "--seed", "42")
        assert first == second

    def test_gon_size(self, capsys):
        code, out, _ = run(capsys, "gen", "ceva-ngon", "--n", "7")
        assert code == 0
        assert len(json.loads(out)["config"]["gon"]["vertices"]) == 7

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "gen", "morley")
        assert code == 2

    def test_n_on_fixed_size_theorem(self, capsys):
        code, _, err = run(capsys, "gen", "two-pencils", "--n", "5")
        assert code == 2
        assert "error" in err

    def test_verify_refuses_n_on_fixed_size_theorem(self, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(
            cli, "run_trial", lambda tid, seed, n, **kw: trials.append((tid, n))
            or (True, {})
        )
        argv = ("verify", "two-pencils", "--n", "5", "--trials", "2")
        code, out, err = run(capsys, *argv)
        assert (code, out, trials) == (2, "", [])
        assert err == "error: theorem 'two-pencils' does not take an n parameter\n"
        # all gives n to the theorems that take it
        code, _, _ = run(capsys, "verify", "all", "--n", "5", "--trials", "1")
        assert code == 0
        takes_n = {tid for tid, n in trials if n == 5}
        assert takes_n == {"ceva-ngon", "menelaos-ngon", "duality", "bisectors-ngon"}
        assert all(n is None for tid, n in trials if tid not in takes_n)


REPO_ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of stdout, recorded on earlier commits; gen JSON, verify and
# check reports, reduction traces and TikZ renders must not move (the
# TikZ pins were recorded when TikZ took svg's canvas coordinates).  Every
# shipped scene is checked with both backends, which runs cr_equal,
# harmonic, fourth_harmonic and the ratio products through the exact
# and the float ratio kernel.
PINNED_STDOUT = [
    (
        ("gen", "ceva-ngon", "--seed", "7"),
        "807b28503d302bdb86f1b56b14cf3bda5d602ebe2a52ead56b59c35e27fe1168",
    ),
    (
        ("gen", "menelaos-ngon", "--seed", "7"),
        "9124af715b236f23591dc01402bcaca477cf1ace9c6ec145489f83c9a381bd33",
    ),
    (
        ("gen", "duality", "--seed", "7"),
        "cdbafb645ef30c7db19e8a4a0a56df55d65f5a64915c7c7e757ebf0ed894c09c",
    ),
    (
        (
            "reduce", "scenes/figure13.hgeo", "--mode", "menelaos",
            "--order", "exhaustive",
        ),
        "736ccc35ef682fc5d2f244d0b05209a62ed21767b1583cd4c56d2d966e64df7e",
    ),
    (
        ("check", "scenes/figure1.hgeo", "--backend", "float"),
        "81ba7edea4f815d34a9cf4535d38ce114ab6a29cf3fd7f633f500fc27d384d03",
    ),
    (
        ("gen", "bisectors-ngon", "--seed", "7"),
        "2ad509f83baa27f47bef0094d66372de2e533e69387261d9b94a0ddb889cda37",
    ),
    (
        ("gen", "bisectors-triangle", "--seed", "7"),
        "ad4232154a0a72032bbdd517590cd9a4200436a094a2cd9f7fe244accf949e2e",
    ),
    (
        ("gen", "ceva-quad", "--seed", "7"),
        "b82304e94329c92c55ee86e33f44212117b47a7cd255c02c7f63416cffa9aa08",
    ),
    (
        ("gen", "cor2", "--seed", "7"),
        "69576c33e596bf141b15891364c1779dc9c50f6fdaf336a277e76dc31c9ed81e",
    ),
    (
        ("gen", "crossratio", "--seed", "7"),
        "455967ca4f82512508b9e00e8f1a5bbc46e851d4d2bdeb7e6cc3c163fdc19ebd",
    ),
    (
        ("gen", "desargues", "--seed", "7"),
        "0b3ad6e8e2dc24e04f0799ff63e8411b435555eae59bee2d87cc559b2005cac5",
    ),
    (
        ("gen", "free-quad", "--seed", "7"),
        "5275cb7e103262fc4e4fc3bdaa6dc9e9f2756fb551c46f2ce4549d498ffc5378",
    ),
    (
        ("gen", "free-triangle", "--seed", "7"),
        "74ada857d96d20a8e0b512622de9ac8c844ca6baa02ac4202ed8110f83a753c0",
    ),
    (
        ("gen", "pappus4", "--seed", "7"),
        "75d004aa99866a7302af2707f2a48978fa83d061fe1024f60e3283419579aeb3",
    ),
    (
        ("gen", "quad-equivalence", "--seed", "7"),
        "99379ea35389041285db5c5de24d64ee4362a99b21992684ef09f5d6e9b8a17c",
    ),
    (
        ("gen", "steiner-add-11", "--seed", "7"),
        "e3289a7bfe1e5eeb8ad30b9c8152bf4c2c2978765f874e5c31684e0101432372",
    ),
    (
        ("gen", "triangle-transfer", "--seed", "7"),
        "5215a575cf79f473e8e0934ea2e75977ddbf6788d98f0ea6c69b4cd3dbcf32a1",
    ),
    (
        ("gen", "two-pencils", "--seed", "7"),
        "c0a71b6141cdcae3f9ffcbee6fb2c52bc595b9a529a8805c094be0254d13b2b5",
    ),
    (
        ("gen", "two-pencils", "--bound", "1", "--seed", "4"),
        "7418da0ff68ad9a1483cc73fda7c1a2402eaf828c190534bbb2432f7e6918cf8",
    ),
    (
        ("verify", "all", "--trials", "20", "--seed", "0"),
        "41d1ba2afb6b8d68d0178a9cf13a5741444445f5065cb681f0f43dbe9affd436",
    ),
    (
        ("check", "scenes/figure1.hgeo"),
        "1a1f4faab098eedf478e8921b016e4cd2c3bc2c5440dfbb5f78ecea3409a7f57",
    ),
    (
        ("render", "scenes/figure1.hgeo", "--format", "tikz"),
        "4ca30895ec95d50b4826b68f13da6baddc38f68e648778cc34e82ecd0a49cd80",
    ),
    (
        ("check", "scenes/figure11.hgeo"),
        "7e93c22d66b806fc9e747610cee2b8cd18709f4e779ded67a0a5af71db871ec8",
    ),
    (
        ("check", "scenes/figure11.hgeo", "--backend", "float"),
        "f49125a56a61a009d7c58be1187145159792da6770c4d2f100f275a1ba314161",
    ),
    (
        ("render", "scenes/figure11.hgeo", "--format", "tikz"),
        "1032f294808dafa884ff8ff2bb7bf21e4a84e9d438c17599b25a630943f0f831",
    ),
    (
        ("check", "scenes/figure13.hgeo"),
        "d098a0afcc32ac7315530b428fd6d5ed29b79e8c2b63e99b1f1516a4d5f0db86",
    ),
    (
        ("check", "scenes/figure13.hgeo", "--backend", "float"),
        "5c8b8983c1fb0db7c098a03614859e47fb786dc7435bc340a5a42ef858fdda75",
    ),
    (
        ("render", "scenes/figure13.hgeo", "--format", "tikz"),
        "80991a39f0729c821f74a7d7c90d3051d6770e313a8bc067b9c6433a4f804096",
    ),
    (
        ("check", "scenes/figure2.hgeo"),
        "a7ce4cadf296efa0d49480a79858c8a597889ecb02ba0301794d4959f99e4b20",
    ),
    (
        ("check", "scenes/figure2.hgeo", "--backend", "float"),
        "a7ce4cadf296efa0d49480a79858c8a597889ecb02ba0301794d4959f99e4b20",
    ),
    (
        ("render", "scenes/figure2.hgeo", "--format", "tikz"),
        "02f29bcdb5ec938fc3c82e18abdcaa1017376b67437725852f9003effec24717",
    ),
    (
        ("check", "scenes/figure5.hgeo"),
        "f61e851c8575cd3e07dd7a366304f3d2131a96b9f12ea0bbc1b5f3ea4d181e67",
    ),
    (
        ("check", "scenes/figure5.hgeo", "--backend", "float"),
        "464ced8146463ea3d86b4fb9da4b62df9faa454824b41a7caf043dd297fb187e",
    ),
    (
        ("render", "scenes/figure5.hgeo", "--format", "tikz"),
        "dea2de5719c5c42ee10fa8bec06fc37a11970f78b1fe51d67a3822b916173740",
    ),
    (
        ("check", "scenes/figure6.hgeo"),
        "f2c1bb7b199d7e0a8d15a6e34260525b792ad3a611c9d43f5bbc7c5fb4cb6645",
    ),
    (
        ("check", "scenes/figure6.hgeo", "--backend", "float"),
        "eead26ffdb990d86e2ee6d202d6346c90bc2b16e62e973c7dde1389bc3ea8ed9",
    ),
    (
        ("render", "scenes/figure6.hgeo", "--format", "tikz"),
        "12e8059fd5582a1c48dc8ebafe68b584febd28343d236097635f25309e913e0e",
    ),
    (
        ("check", "scenes/figure7.hgeo"),
        "c3bd39596d598cee7ab01bb42b69b7726b12344e054a97ca852013a58759e560",
    ),
    (
        ("check", "scenes/figure7.hgeo", "--backend", "float"),
        "c3bd39596d598cee7ab01bb42b69b7726b12344e054a97ca852013a58759e560",
    ),
    (
        ("render", "scenes/figure7.hgeo", "--format", "tikz"),
        "074df715dd2057df3155092f377b62bbdb6c83b7cd4d3d1e5328313d186a66a3",
    ),
    (
        ("check", "scenes/figure9.hgeo"),
        "c760d918eaba252538cf56f7c727d2bc067bce64d1b825bf8a817a6a58d189ad",
    ),
    (
        ("check", "scenes/figure9.hgeo", "--backend", "float"),
        "9fa46fcdf5af3c5b448b6c54dafc0ae63233c8a986b4386094df0e3c1e58eb08",
    ),
    (
        ("render", "scenes/figure9.hgeo", "--format", "tikz"),
        "b2c43a69f942d37ddcad482b7ef2d012e69c7dc693cb7e17eb049c5428b5f390",
    ),
    (
        (
            "verify", "all", "--trials", "20", "--seed", "0", "--backend", "float",
        ),
        "41d1ba2afb6b8d68d0178a9cf13a5741444445f5065cb681f0f43dbe9affd436",
    ),
]


def _pin_id(argv) -> str:
    name = argv[0] + ":" + argv[1]
    if "--bound" in argv:
        name += ":bound" + argv[argv.index("--bound") + 1]
    if "--format" in argv:
        name += ":" + argv[argv.index("--format") + 1]
    if "--backend" in argv:
        name += ":" + argv[argv.index("--backend") + 1]
    elif argv[0] == "check":
        name += ":exact"
    # pinned before ids named the backend, this one keeps its bare id
    return name.replace("check:scenes/figure1.hgeo:float", "check:scenes/figure1.hgeo")


@pytest.mark.parametrize(
    "argv, digest", PINNED_STDOUT, ids=[_pin_id(a) for a, _ in PINNED_STDOUT]
)
def test_pinned_stdout_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(REPO_ROOT)  # check reports carry the scene path
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The largest exhaustive check README shows: it must succeed like every
# other command there.
README_EXHAUSTIVE_SEVEN = (
    "verify", "ceva-ngon", "--n", "7", "--order", "exhaustive",
)


def test_readme_commands_exit_as_documented(capsys, monkeypatch, tmp_path):
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("harmonica ")
    ]
    assert list(README_EXHAUSTIVE_SEVEN) in commands
    shutil.copytree(REPO_ROOT / "scenes", tmp_path / "scenes")
    monkeypatch.chdir(tmp_path)  # the commands write trace.jsonl, figure7.svg
    wrong = []
    for argv in commands:
        code, _, err = run(capsys, *argv)
        if code != 0:
            wrong.append((" ".join(argv), code, err))
    assert wrong == []


def _fresh_env() -> dict:
    """The environment of a fresh `python -m harmonica.cli` process that
    imports this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


# A Ceva triangle whose names are not ASCII.
UTF8_SCENE = """\
point \u00e9 = (0, 0)
point B = (6, 0)
point C = (2, 5)
point O = (2, 2)
line g\u00e9 = join(\u00e9, O)
line gB = join(B, O)
line gC = join(C, O)
gon T\u00e9 = [\u00e9, B, C]
assert pseudo_concurrent(T\u00e9, g\u00e9, gB, gC)
"""


def test_scene_and_trace_files_are_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "e.hgeo").write_text(UTF8_SCENE, encoding="utf-8")
    env = _fresh_env()
    # the C locale's encoding is ASCII once coercion and UTF-8 mode are off
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

    def run(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "harmonica.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        return done.stdout

    assert json.loads(run("check", "e.hgeo"))["passed"] is True
    run("render", "e.hgeo", "--out", "e.svg")
    svg = (tmp_path / "e.svg").read_text(encoding="utf-8")
    assert ">\u00e9</text>" in svg
    assert run("render", "e.hgeo") == svg.encode("utf-8")
    run("reduce", "e.hgeo", "--mode", "ceva", "--out", "e.jsonl")
    assert json.loads(run("reduce", "--replay", "e.jsonl"))["replay"] == "ok"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("verify", "all", "--trials", "2"), ("check", "scenes/figure7.hgeo")],
    ids=["verify", "check"],
)
def test_closed_stdout_exits_as_sigpipe_and_writes_no_stderr(argv, unbuffered):
    # A buffered stdout holds a short report until the flush at exit,
    # an unbuffered one fails at the first write; both must end alike.
    assert _run_into_closed_stdout(argv, unbuffered) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_into_closed_stdout_exits_as_sigpipe(argv, unbuffered):
    # argparse prints the help and exits before any command runs; the
    # help's write (unbuffered) or its flush (buffered) meets the closed
    # reader inside main.
    assert _run_into_closed_stdout(argv, unbuffered) == (141, b"")


def _run_into_closed_stdout(argv, unbuffered: bool) -> tuple[int, bytes]:
    """Exit code and stderr of `python -m harmonica.cli argv` whose
    stdout is a pipe with no reader."""
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the process starts, so its first
    # write is certain to find the reader gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "harmonica.cli", *argv],
            cwd=REPO_ROOT,
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


# Calls of main in one interpreter: an argparse usage error first, then
# each call after one with other options, so an option that leaked from
# the call before would show.
REPEATED_ARGV = [
    ("check", "--backend", "float"),  # no scene: argparse exits 2
    ("check", "scenes/figure1.hgeo", "--backend", "float"),
    ("check", "scenes/figure1.hgeo"),
    ("render", "scenes/figure1.hgeo", "--format", "tikz"),
    ("render", "scenes/figure1.hgeo"),
    ("verify", "all", "--trials", "0"),
]


def test_main_called_again_and_again_matches_fresh_processes(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this
    monkeypatch.delenv(EPS_ENV_VAR, raising=False)
    in_process = []
    for argv in REPEATED_ARGV:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))

    env = _fresh_env()
    fresh = []
    for argv in REPEATED_ARGV:
        done = subprocess.run(
            [sys.executable, "-m", "harmonica.cli", *argv],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))

    assert in_process == fresh
    assert _build_parser() is _build_parser()  # built once per process
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 2]
    assert "the following arguments are required: scene" in in_process[0][2]
    # the default backend is exact: its cross-ratios print as integers
    assert "cross-ratio -1.0" in in_process[1][1]
    assert "cross-ratio -1.0" not in in_process[2][1]
    assert in_process[3][1].startswith("\\begin{tikzpicture}")
    assert in_process[4][1].startswith("<svg")
    assert "--trials must be at least 1" in in_process[5][2]

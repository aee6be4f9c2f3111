"""Command line behavior: exit codes, report shapes, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from harmonica.cli import _parse_order, _UsageError, main
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
        assert "all reduction orders agree" in err

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

    def test_tampered_trace_fails_replay(self, capsys, scene_file, tmp_path):
        path = scene_file(PENTAGON_SCENE)
        trace_path = tmp_path / "trace.jsonl"
        run(capsys, "reduce", path, "--mode", "ceva", "--out", str(trace_path))
        text = trace_path.read_text().replace('"verdict": true', '"verdict": false')
        trace_path.write_text(text)
        code, _, err = run(capsys, "reduce", "--replay", str(trace_path))
        assert code == 1
        assert "replay mismatch" in err

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


REPO_ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of stdout, recorded before the exact kernel moved to integer
# forms; gen JSON, reduction traces and check reports must not move.
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
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_STDOUT, ids=[a[0] + ":" + a[1] for a, _ in PINNED_STDOUT]
)
def test_pinned_stdout_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(REPO_ROOT)  # check reports carry the scene path
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""The three benchmark workloads.

Each workload turns the benchmark seed into its inputs during set-up
and then hands out rounds of ops. A round is a fixed mix of ops, so a
run that stops between rounds keeps the same proportions whatever its
length. Rounds 0 to `cycle - 1` hold every distinct op of a seed; a
run repeats them in that order, so which ops it attempts depends on
the seed alone, not on how fast the machine is. Every op carries an oracle that does not come from the code
under test: the claim its input was built to satisfy.

Failures that match a defect listed in ROADMAP.md are labelled as
known; they still count as failed ops. Any other failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scenegen import GON_PATTERNS, generate_scene

SEED_STRIDE = 1000003  # the stride `harmonica verify` uses for trial seeds


def trial_seed(master: int, index: int) -> int:
    return (master * SEED_STRIDE + index) % 2**64


@dataclass(frozen=True)
class Raised:
    """An op that raised instead of returning."""

    error: Exception

    def __str__(self) -> str:
        return f"raised {type(self.error).__name__}: {self.error}"


@dataclass(frozen=True)
class Op:
    id: str
    seed: int
    call: Callable[[], object]
    # check(output, outputs of the earlier ops of the round by id):
    # None when the output is right, else the reason it is wrong.
    check: Callable[[object, dict], str | None]
    # known(output): the ROADMAP defect this failure reproduces, or None.
    known: Callable[[object], str | None] = lambda out: None


def call_op(op: Op):
    try:
        return op.call()
    except Exception as exc:  # a failed op, recorded and checked
        return Raised(exc)


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """One op is one registry.run_trial: all 16 theorems, natural
    arithmetic, default n, order "first", seeds as `verify all` derives
    them. Round k is trial k of every theorem."""

    trace_rounds_per_s = 5
    # trials per theorem; bisectors-ngon fails about one trial in 250,
    # so most seeds show that known defect within the cycle
    cycle = 300

    def __init__(self, h, seed: int, root: Path) -> None:
        self.h = h
        self.seed = seed
        self.theorems = h.registry.theorem_ids()

    def round(self, k: int) -> list[Op]:
        seed = trial_seed(self.seed, k)
        return [self._op(tid, k, seed) for tid in self.theorems]

    def _op(self, tid: str, k: int, seed: int) -> Op:
        registry = self.h.registry

        def check(out, _):
            if isinstance(out, Raised):
                return str(out)
            passed, detail = out
            if tid == "duality":
                # the claim is agreement, whatever the verdicts are
                if detail["pseudo_collinear"] != detail["dual_pseudo_concurrent"]:
                    return f"primal and dual verdicts differ: {detail}"
                return None
            return None if passed else f"forced positive failed: {detail}"

        def known(out):
            if tid != "bisectors-ngon":
                return None
            if not isinstance(out, Raised):
                return "bisectors-ngon float reduction verdict is False"
            if type(out.error).__name__ in ("DegenerateStep", "InconsistentOrders"):
                return "bisectors-ngon float reduction step degenerates"
            return None

        return Op(
            f"{tid}/trial{k}",
            seed,
            lambda: registry.run_trial(tid, seed, n=None, order="first"),
            check,
            known,
        )

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# reduce-exhaustive

GONS_PER_KIND = 24


class ReduceExhaustive:
    """One op is one exhaustive pseudo-concurrency or pseudo-collinearity
    verdict. Gons are built in set-up: forced Ceva and Menelaos gons
    and duality-forced gons with their bridged duals, n = 5 and 6, each
    once exact and once coerced to floats."""

    trace_rounds_per_s = 0.4
    cycle = GONS_PER_KIND

    def __init__(self, h, seed: int, root: Path) -> None:
        self.h = h
        self.pool: dict[str, list] = {}
        gen = h.generate
        for kind_index, (theorem, n) in enumerate(
            (t, n) for t in ("ceva-ngon", "menelaos-ngon", "duality") for n in (5, 6)
        ):
            entries = []
            for j in range(GONS_PER_KIND):
                gseed = trial_seed(seed, 1000 * kind_index + j)
                gon = gen.gen_hypothesis_forcing(theorem, gen.GenSpec(seed=gseed), n=n)["gon"]
                gons = {"exact": gon, "float": self._floatify(gon)}
                if theorem == "duality":
                    dual = h.reduction.duality_bridge(gon)
                    gons["dual-exact"] = dual
                    gons["dual-float"] = self._floatify(dual)
                entries.append((gseed, gons))
            self.pool[f"{theorem.split('-')[0]}{n}"] = entries

    def _floatify(self, gon):
        reduction = self.h.reduction

        def fl(obj):
            return type(obj)(*(float(v) for v in obj.triple))

        if isinstance(gon, reduction.CevaGon):
            return reduction.CevaGon(
                tuple(map(fl, gon.vertices)), tuple(map(fl, gon.cevians))
            )
        return reduction.MenelaosGon(
            tuple(map(fl, gon.vertices)), tuple(map(fl, gon.side_points))
        )

    def round(self, k: int) -> list[Op]:
        ops = []
        for name, entries in self.pool.items():
            j = k % len(entries)
            gseed, gons = entries[j]
            for backend in ("exact", "float"):
                if name.startswith("duality"):
                    primal = f"{name}-{backend}/gon{j}"
                    ops.append(self._op(primal, gseed, gons[backend], None))
                    ops.append(
                        self._op(f"{name}-dual-{backend}/gon{j}", gseed,
                                 gons[f"dual-{backend}"], primal)
                    )
                else:
                    ops.append(self._op(f"{name}-{backend}/gon{j}", gseed, gons[backend], True))
        return ops

    def _op(self, op_id: str, gseed: int, gon, expect) -> Op:
        """expect: True for a forced positive, None for a duality primal
        (any verdict), or the op id of the primal a dual must agree with."""
        reduction = self.h.reduction
        is_ceva = isinstance(gon, reduction.CevaGon)
        verdict_fn = "is_pseudo_concurrent" if is_ceva else "is_pseudo_collinear"

        def call():
            return getattr(reduction, verdict_fn)(gon, "exhaustive")[0]

        def check(out, prior):
            if isinstance(out, Raised):
                return str(out)
            if expect is True and out is not True:
                return f"forced positive gave {out}"
            if isinstance(expect, str):
                primal = prior.get(expect)
                if not isinstance(primal, Raised) and primal != out:
                    return f"dual verdict {out} differs from primal verdict {primal}"
            return None

        return Op(op_id, gseed, call, check)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# scenes

SHIPPED_SCENES = tuple(f"figure{i}" for i in (1, 2, 5, 6, 7, 9, 11, 13))
GENERATED_PER_ROUND = 3 * len(GON_PATTERNS)
GENERATED_POOL = 4 * GENERATED_PER_ROUND
SCENE_COMMANDS = (
    ("check-exact", ["check"]),
    ("check-float", ["check", "--backend", "float"]),
    ("render-svg", ["render", "--format", "svg"]),
    ("render-tikz", ["render", "--format", "tikz"]),
)


class Scenes:
    """One op is one in-process harmonica.cli.main call: check (exact
    and float) or render (svg and tikz), on the eight shipped scenes and
    on seeded generated scenes written in set-up."""

    trace_rounds_per_s = 0.25
    cycle = GENERATED_POOL // GENERATED_PER_ROUND

    def __init__(self, h, seed: int, root: Path) -> None:
        self.h = h
        self.seed = seed
        self.workdir = root / ".bench_out" / "scenes"
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.shipped = []
        for name in SHIPPED_SCENES:
            path = root / "scenes" / f"{name}.hgeo"
            text = path.read_text()
            asserts = sum(1 for ln in text.splitlines() if ln.lstrip().startswith("assert "))
            self.shipped.append((name, str(path), asserts))
        self.generated = []
        for i in range(GENERATED_POOL):
            text, asserts = generate_scene(seed, i)
            path = self.workdir / f"gen{i}.hgeo"
            path.write_text(text)
            self.generated.append((f"gen{i}", str(path), asserts))
        self.first_render: dict[str, str] = {}

    def round(self, k: int) -> list[Op]:
        start = k * GENERATED_PER_ROUND
        scenes = self.shipped + [
            self.generated[(start + i) % GENERATED_POOL] for i in range(GENERATED_PER_ROUND)
        ]
        return [
            self._op(name, path, asserts, label, argv)
            for name, path, asserts in scenes
            for label, argv in SCENE_COMMANDS
        ]

    def _op(self, name, path, asserts, label, argv) -> Op:
        cli = self.h.cli
        args = [argv[0], path, *argv[1:]]
        op_id = f"{name}:{label}"

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(args)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()

        def check(out, _):
            if isinstance(out, Raised):
                return str(out)
            rc, stdout, stderr = out
            if rc != 0:
                return f"exit {rc}: {stderr.strip()}"
            if label.startswith("check"):
                try:
                    report = json.loads(stdout)
                except ValueError:
                    return f"check printed no JSON report: {stdout[:80]!r}"
                results = report["assertions"]
                if not report["passed"] or len(results) != asserts:
                    return f"{len(results)} of {asserts} assertions reported, passed={report['passed']}"
                return None
            return self._check_render(op_id, label, stdout)

        def known(out):
            if (
                name == "figure9"
                and label == "check-float"
                and not isinstance(out, Raised)
                and out[0] == 2
            ):
                return "figure9 float check exits 2 (complete_fourth_line has no backend)"
            return None

        return Op(op_id, self.seed, call, check, known)

    def _check_render(self, op_id: str, label: str, text: str) -> str | None:
        first = self.first_render.get(op_id)
        if first is not None:
            return None if text == first else "render differs from an earlier render"
        if label == "render-svg":
            try:
                root = ET.fromstring(text)
            except ET.ParseError as exc:
                return f"SVG does not parse as XML: {exc}"
            if not root.tag.endswith("svg"):
                return f"SVG root element is {root.tag}"
        elif not (text.startswith("\\begin{tikzpicture}") and text.rstrip().endswith("\\end{tikzpicture}")):
            return "TikZ output is not one tikzpicture"
        self.first_render[op_id] = text
        return None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "verify-all": VerifyAll,
    "reduce-exhaustive": ReduceExhaustive,
    "scenes": Scenes,
}

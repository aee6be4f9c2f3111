"""Command line front end.

Subcommands: verify (seeded theorem suites), check (scene assertions),
reduce (polygon reduction traces and replay), render (SVG/TikZ
figures), gen (emit a forced configuration as JSON).

Exit codes: 0 everything passed, 1 a verification or assertion failed,
2 usage or input error, 141 (128 + SIGPIPE) the reader closed the
output before the report was written, as with `| head`; nothing is
written to stderr then.  Every command is a pure function of its
arguments, input files, and seed; reports carry "schema": 1 and any
failing trial lists the seed that regenerates its exact configuration
(feed it to `gen`).

`main` builds its argument parser once per process and reuses it, so
it may be called again and again in one interpreter; each call reads
only its own argv and leaves nothing behind for the next.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from pathlib import Path

from .core import EXACT, GeometryError, float_backend
from .dsl import (
    AssertProduct,
    AssertPseudo,
    EvaluationError,
    SceneError,
    _assertion_gon,
    evaluate,
    parse,
)
from .generate import GenSpec, config_to_json, gen_hypothesis_forcing
from .reduction import (
    DegenerateStep,
    ReductionTrace,
    ReplayMismatch,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    replay_trace,
)
from .registry import UnknownTheorem, get_entry, run_trial, theorem_ids
from .render import Viewport, render_scene

SCHEMA = 1

_SEED_STRIDE = 1000003  # trial i uses seed*stride + i, folded to 64 bits


class _UsageError(Exception):
    pass


def _parse_order(text: str):
    if text in ("first", "exhaustive"):
        return text
    if text.startswith("seed:"):
        tail = text[len("seed:"):]
        if not tail.isdecimal():
            raise _UsageError(f"bad order spec {text!r}: seed:<int> expected")
        return ("seed", int(tail))
    parts = text.split(",")
    if all(p.isdecimal() for p in parts):
        return tuple(int(p) for p in parts)
    raise _UsageError(
        f"bad order spec {text!r}: use first, exhaustive, seed:<k>,"
        " or comma-separated 1-based indices"
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        if isinstance(sys.stdout, io.TextIOWrapper):
            # UTF-8 whatever the locale, as an --out file is
            sys.stdout.reconfigure(encoding="utf-8")
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        # a reader that has gone fails here, inside main, not at exit
        sys.stdout.flush()
    else:
        Path(out).write_text(
            text if text.endswith("\n") else text + "\n", encoding="utf-8"
        )


def _read_scene(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read scene {path!r}: {exc}")
    return parse(text)


def _backend_for(name: str):
    return float_backend() if name == "float" else EXACT


# ---------------------------------------------------------------------------
# verify


def _trial_seed(master: int, index: int) -> int:
    return (master * _SEED_STRIDE + index) % 2**64


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    order = _parse_order(args.order)
    ids = theorem_ids() if args.theorem == "all" else (args.theorem,)
    # all gives n to the theorems that take it; one theorem must take it
    if args.theorem != "all" and args.n is not None and not get_entry(ids[0]).takes_n:
        raise _UsageError(f"theorem {ids[0]!r} does not take an n parameter")
    results = []
    for tid in ids:
        entry = get_entry(tid)
        failures = []
        for i in range(args.trials):
            seed = _trial_seed(args.seed, i)
            try:
                passed, detail = run_trial(
                    tid,
                    seed,
                    n=args.n if entry.takes_n else None,
                    order=order,
                    backend=args.backend,
                )
            except GeometryError as exc:
                passed, detail = False, {"error": str(exc)}
            if not passed:
                failures.append({"trial": i, "seed": seed, "detail": detail})
        results.append(
            {
                "theorem": tid,
                "trials": args.trials,
                "failures": failures,
                "passed": not failures,
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "seed": args.seed,
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    ast = _read_scene(args.scene)
    report = evaluate(ast, _backend_for(args.backend))
    data = report.to_json()
    data["command"] = "check"
    data["scene"] = args.scene
    _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
    if not report.all_passed:
        for r in report.assertions:
            if not r.passed:
                print(
                    f"FAIL assertion {r.index} (line {r.line}): {r.kind}"
                    f" {r.detail}".rstrip(),
                    file=sys.stderr,
                )
        return 1
    return 0


# ---------------------------------------------------------------------------
# reduce


def _gon_from_scene(ast, report, mode: str):
    """Build the gon of the first assertion matching the mode."""
    for st in ast.statements:
        if isinstance(st, (AssertPseudo, AssertProduct)) and st.kind == mode:
            return _assertion_gon(st, report.bindings)
    raise _UsageError(
        f"scene has no {mode} assertion to take a gon from; add a"
        f" pseudo_/{mode}_product assertion"
    )


def cmd_reduce(args) -> int:
    if args.replay is not None:
        try:
            text = Path(args.replay).read_text(encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot read trace {args.replay!r}: {exc}")
        trace = ReductionTrace.from_json_lines(text)
        # without --backend the trace replays in its data's lane
        backend = args.backend and _backend_for(args.backend)
        replayed = replay_trace(trace, backend)
        confirmation = {
            "schema": SCHEMA,
            "command": "reduce",
            "replay": "ok",
            "kind": replayed.kind,
            "verdict": replayed.verdict,
        }
        _emit(json.dumps(confirmation, indent=2, sort_keys=True), args.out)
        return 0
    if args.scene is None or args.mode is None:
        raise _UsageError("reduce needs a scene and --mode (or --replay)")
    order = _parse_order(args.order)
    ast = _read_scene(args.scene)
    backend = _backend_for(args.backend)
    report = evaluate(ast, backend)
    gon = _gon_from_scene(ast, report, args.mode)
    check = is_pseudo_concurrent if gon.kind == "ceva" else is_pseudo_collinear
    try:
        verdict, trace = check(gon, order, backend)
    except DegenerateStep as exc:
        print(f"degenerate step: {exc}", file=sys.stderr)
        if exc.trace is not None:
            _emit(exc.trace.to_json_lines(), args.out)
        return 2
    _emit(trace.to_json_lines(), args.out)
    if order == "exhaustive":
        print(
            "exhaustive: reduction orders agree; orders that remove the same"
            " slots were checked once",
            file=sys.stderr,
        )
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    ast = _read_scene(args.scene)
    viewport = None
    if args.viewport is not None:
        try:
            viewport = Viewport.parse(args.viewport)
        except ValueError as exc:
            raise _UsageError(str(exc))
    text = render_scene(
        ast, fmt=args.format, viewport=viewport, backend=_backend_for(args.backend)
    )
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    spec = GenSpec(seed=args.seed, bound=args.bound)
    config = gen_hypothesis_forcing(args.theorem, spec, n=args.n)
    data = {
        "schema": SCHEMA,
        "command": "gen",
        "seed": args.seed,
        "config": config_to_json(config),
    }
    _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
    return 0


# ---------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own swallows an OSError; a closed reader must reach main
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harmonica",
        description="exact projective geometry: verify theorems, check"
        " scenes, reduce polygons, render figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run seeded trials of a theorem")
    v.add_argument("theorem", help="theorem id or 'all'")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--backend", choices=("exact", "float"), default=None)
    v.add_argument("--n", type=int, default=None, help="gon size where supported")
    v.add_argument("--order", default="first", help="reduction order spec")
    v.add_argument("--out", default=None, help="write the JSON report here")

    c = sub.add_parser("check", help="evaluate a .hgeo scene's assertions")
    c.add_argument("scene")
    c.add_argument("--backend", choices=("exact", "float"), default="exact")
    c.add_argument("--out", default=None)

    r = sub.add_parser("reduce", help="reduce a scene's gon, emit the trace")
    r.add_argument("scene", nargs="?", default=None)
    r.add_argument("--mode", choices=("ceva", "menelaos"), default=None)
    r.add_argument("--order", default="first")
    r.add_argument("--backend", choices=("exact", "float"), default=None)
    r.add_argument("--replay", default=None, help="re-run a saved trace")
    r.add_argument("--out", default=None)

    d = sub.add_parser("render", help="draw a scene as SVG or TikZ")
    d.add_argument("scene")
    d.add_argument("--format", choices=("svg", "tikz"), default="svg")
    d.add_argument("--viewport", default=None, help="x0,y0,x1,y1")
    d.add_argument("--backend", choices=("exact", "float"), default="exact")
    d.add_argument("--out", default=None)

    g = sub.add_parser("gen", help="emit a forced configuration as JSON")
    g.add_argument("theorem")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--bound", type=int, default=10)
    g.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "check": cmd_check,
    "reduce": cmd_reduce,
    "render": cmd_render,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except (UnknownTheorem, _UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has closed the output.  Point stdout at the null
        # device, so the flush at exit finds nothing to fail on, and
        # exit silently as a process killed by SIGPIPE would.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
        return 141  # 128 + SIGPIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

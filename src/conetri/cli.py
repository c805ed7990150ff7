"""Command-line front end and run orchestration.

Subcommands:
    conetri run <input.json> [--verify] [--trace PATH] [--format json|text]
    conetri random --dim D --bound B --count N --seed S [--verify]
    conetri bounds --mu M --dim D

Input files describe one cone:
    {"dimension": 2, "generators": [[1, 0], [1, 3]]}

Reports are deterministic: the same input (or the same seed) produces byte
identical output. Exit status is 0 for a finished run, 2 when --verify is
given and some certificate fails, and 1 for unusable input (bounds past a
float too, or a run out of memory) or output that cannot be written (a bad
trace path, a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import random
import stat
import sys
from typing import Any, NamedTuple, Sequence, TextIO

from .cone_geometry import (
    SimplicialCone,
    make_cone,
    primitive_direction,
    vector_content,
)
from .errors import ConetriError
from .p2t_engine import TraceEvent, run_p2t
from .pow2_refiner import refine_to_unimodular
from .verifier import (
    CertificateReport,
    certify,
    final_bounds,
    intermediate_mu_ceiling,
)


class RunConfig(NamedTuple):
    """Everything one pipeline invocation depends on."""

    generators: tuple[tuple[int, ...], ...]


def parse_input(text: str) -> SimplicialCone:
    """Parse a cone description from JSON text.

    Expects {"dimension": d, "generators": [d vectors of d ints]}. A
    generator with content > 1 is divided down to its primitive direction,
    with a warning on stderr.

    Raises:
        ValueError: malformed or too deeply nested JSON, or wrong shapes
            (also the base class of the dependent-generators and dimension
            errors).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("input JSON is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    try:
        d = data["dimension"]
        gens = data["generators"]
    except KeyError as exc:
        raise ValueError(f"missing input field {exc}") from exc
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    if (
        not isinstance(gens, list)
        or len(gens) != d
        or any(
            not isinstance(g, list)
            or len(g) != d
            or any(not isinstance(c, int) or isinstance(c, bool) for c in g)
            for g in gens
        )
    ):
        raise ValueError("generators must be a d x d array of integers")
    cleaned = []
    for g in gens:
        if vector_content(g) == 0:
            raise ValueError(f"generator {g} is the zero vector")
        if vector_content(g) != 1:
            prim = primitive_direction(g)
            print(
                f"warning: generator {g} divided by its content to {list(prim)}",
                file=sys.stderr,
            )
            cleaned.append(prim)
        else:
            cleaned.append(tuple(g))
    return make_cone(cleaned)


def random_cone(dim: int, bound: int, rng: random.Random) -> SimplicialCone:
    """A random nonsingular cone with entries uniform in [-bound, bound].

    The full generator matrix is resampled until it is nonsingular; each
    generator is then divided by its content to make it primitive.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    while True:
        gens = [
            [rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)
        ]
        try:
            return make_cone([primitive_direction(g) for g in gens])
        except ValueError:
            continue


# Encoder pieces joined per write. `conetri run` on the heavy-d4 seed-0 cone
# (62.6 MB report) piped out, 2 vCPUs, Python 3.11.7: 5.7-6.0 s, 95 MB peak
# RSS; one json.dumps string: 5.8-6.8 s, 463 MB; a write per piece
# (json.dump): 14.6-14.7 s.
_JSON_BATCH = 8192


def _write_json(obj: Any, fh: TextIO) -> None:
    """Write json.dumps(obj, indent=2) and a newline to fh, in pieces."""
    pieces = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := list(itertools.islice(pieces, _JSON_BATCH)):
        fh.write("".join(batch))
    fh.write("\n")


def _report_dict(
    base: SimplicialCone,
    final: list[SimplicialCone],
    report: CertificateReport,
    mu_ceiling: float,
) -> dict[str, Any]:
    mu = base.multiplicity
    return {
        "dimension": base.dimension,
        "base": {
            "generators": base.generators,
            "multiplicity": mu,
        },
        "final": {
            "count": len(final),
            "cones": [
                # json writes the generator tuples exactly as lists.
                {"generators": c.generators, "multiplicity": c.multiplicity}
                for c in final
            ],
        },
        "max_dilation": "{}/{}".format(*report.max_dilation),
        "bounds": {
            "theorem": report.final_bound_thm,
            "simplified": report.final_bound_cor,
            "mu_ceiling": mu_ceiling,
            "slack_ratio": report.slack_ratio,
        },
        "certificates": report.certificates._asdict(),
    }


def run_pipeline(cfg: RunConfig) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Run both phases on one cone and certify the outcome.

    The cyclic garbage collector is paused for the call. A run makes no
    reference cycles (tests/test_cli.py checks that gc.collect() finds
    nothing after runs with the collector off), so reference counting
    frees all of its garbage, and a collector pass would only walk the
    live cones: a run ending in 147,021 cones made about 1,400 passes,
    six of them over every live object. The collector is re-enabled on the
    way out, also on an exception, if it was on when the call began.

    Returns:
        (report, trace): the report document and phase 1's subdivision
        events, the record certify audited.

    Raises:
        OverflowError: naming mu, if the report's multiplicity ceiling
            overflows a float (mu >= ~2**44). It is computed before phase 1,
            so such a cone fails at once instead of after an endless run.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        base = make_cone(cfg.generators)
        mu_ceiling = intermediate_mu_ceiling(base.multiplicity)
        state = run_p2t(base)
        final = refine_to_unimodular(state.triangulation.cones)
        report = certify(base, final, state.trace)
        return _report_dict(base, final, report, mu_ceiling), state.trace
    finally:
        if was_enabled:
            gc.enable()


def _report_text(doc: dict[str, Any]) -> str:
    lines = [
        f"dimension {doc['dimension']}, base multiplicity "
        f"{doc['base']['multiplicity']}",
        f"final cones: {doc['final']['count']}",
        f"max dilation: {doc['max_dilation']}",
        f"theorem bound: {doc['bounds']['theorem']:.6g}",
    ]
    if doc["bounds"]["simplified"] is not None:
        lines.append(f"simplified bound: {doc['bounds']['simplified']:.6g}")
    lines.append(f"slack ratio: {doc['bounds']['slack_ratio']:.6g}")
    for name, ok in doc["certificates"].items():
        lines.append(f"{name}: {'pass' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _same_file(a: TextIO, b: TextIO) -> bool:
    """Whether a and b write to one file; False if either has no fd."""
    try:
        return os.path.samestat(os.fstat(a.fileno()), os.fstat(b.fileno()))
    except (OSError, ValueError):
        return False


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        cone = parse_input(text)
    except (ValueError, ConetriError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # The trace file is opened before the run, so a bad path fails at once.
    # A full disk may only show when the file is closed, so the close is
    # covered too. A failed run deletes the file if it made it (mode "x"
    # makes a new regular file); a path already there, say /dev/stdout, stays,
    # and is opened to append so that a regular file keeps its old bytes
    # until the finished trace replaces them. When that path is the file
    # stdout writes to (/dev/stdout redirected to a file), the report would
    # start over the trace at stdout's own offset, so the trace goes through
    # sys.stdout, ahead of the report.
    created = written = to_stdout = False
    try:
        out = contextlib.nullcontext()
        if args.trace is not None:
            try:
                out, created = open(args.trace, "x", encoding="utf-8"), True
            except FileExistsError:
                out = open(args.trace, "a", encoding="utf-8")
                to_stdout = _same_file(out, sys.stdout)
        with out as fh:
            doc, trace = run_pipeline(RunConfig(generators=cone.generators))
            if fh is not None and not to_stdout:
                # Devices (/dev/full, a terminal) cannot be truncated.
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                _write_json([ev._asdict() for ev in trace], fh)
        written = True
    except OSError as exc:
        print(f"error: cannot write {args.trace}: {exc}", file=sys.stderr)
        return 1
    finally:
        if created and not written:
            with contextlib.suppress(OSError):
                os.remove(args.trace)
    if to_stdout:
        _write_json([ev._asdict() for ev in trace], sys.stdout)
    if args.format == "json":
        _write_json(doc, sys.stdout)
    else:
        print(_report_text(doc), end="")
    failing = [k for k, v in doc["certificates"].items() if not v]
    if args.verify and failing:
        print(f"certificate failure: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: --count must be positive", file=sys.stderr)
        return 1
    runs = []
    all_pass = True
    for i in range(args.count):
        rng = random.Random(args.seed * 1_000_003 + i)
        try:
            cone = random_cone(args.dim, args.bound, rng)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        doc, _ = run_pipeline(RunConfig(generators=cone.generators))
        ok = all(doc["certificates"].values())
        all_pass = all_pass and ok
        runs.append(
            {
                "index": i,
                "base": doc["base"],
                "final_count": doc["final"]["count"],
                "max_dilation": doc["max_dilation"],
                "slack_ratio": doc["bounds"]["slack_ratio"],
                "pass": ok,
            }
        )
    summary = {
        "seed": args.seed,
        "dimension": args.dim,
        "bound": args.bound,
        "count": args.count,
        "all_pass": all_pass,
        "runs": runs,
    }
    _write_json(summary, sys.stdout)
    return 2 if args.verify and not all_pass else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        ceiling = intermediate_mu_ceiling(args.mu)
        thm, cor = final_bounds(args.mu, args.dim)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "mu": args.mu,
        "dimension": args.dim,
        "theorem": thm,
        "simplified": cor,
        "mu_ceiling": ceiling,
    }
    _write_json(doc, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conetri",
        description="Triangulate a simplicial lattice cone into unimodular "
        "cones with certified generator lengths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="triangulate the cone in a JSON file")
    p_run.add_argument("input", help="path to the cone description")
    p_run.add_argument(
        "--verify",
        action="store_true",
        help="exit 2 unless every certificate passes",
    )
    p_run.add_argument("--trace", help="write the subdivision trace to this file")
    p_run.add_argument("--format", choices=("json", "text"), default="json")
    p_run.set_defaults(func=_cmd_run)

    p_rand = sub.add_parser("random", help="run a seeded random campaign")
    p_rand.add_argument("--dim", type=int, required=True)
    p_rand.add_argument("--bound", type=int, required=True)
    p_rand.add_argument("--count", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True)
    p_rand.add_argument("--verify", action="store_true")
    p_rand.set_defaults(func=_cmd_random)

    p_bounds = sub.add_parser("bounds", help="print the length ceilings")
    p_bounds.add_argument("--mu", type=int, required=True)
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # A closed pipe may only show when the buffer is flushed.
        sys.stdout.flush()
    except OSError as exc:
        # Stdout failed: the commands name the other files they fail on. A
        # reader that went away (say, `| head`) needs no message; a full
        # disk does. As the Python docs advise, point stdout at devnull so
        # the flush at exit cannot fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OverflowError as exc:  # its message names mu or the dimension
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Caught here, once the run's frames have unwound and freed what
        # they held. With no address-space limit the kernel may kill the
        # process instead; README says how large a run gets.
        print("error: out of memory", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

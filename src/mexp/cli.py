"""Command-line front end.

Every subcommand is a thin adapter over the library: it loads inputs, calls
one operation, and prints a JSON report to stdout.  The results of
spectrum, poincare, verify, family and certify are the library's result
dataclasses rendered field by field, through one serializer: rationals (an
exact side of a verify check among them) as "p/q" strings, floats as JSON
numbers, pair keys as "x,y", and six fields under the paper's symbols (size
as n, max_valency as K, ratio_bound as s, peak_fraction as gamma,
ghostly_verdict as ghostly, pair_measure as nu).  spectrum adds the
operator name, and its zero_multiplicity is the graph's component count;
certify emits nu only with --emit-nu and never on a skipped member.  Exit
codes: 0 on success (including "inequality holds"), 1 when a verified
inequality is violated (a bug sentinel, since these are proved statements),
2 on bad input (a usage error, an unreadable or malformed file, an argument
outside its domain, or a graph beyond the enumeration cap), 3 on any other
exception, an internal fault whose traceback goes to stderr, 4 when certify
tested no map on any member (an untested certificate).  A reader that
closes the pipe early ends the output quietly, with the command's own code.
Each subcommand declares only the options its handler reads; randomized
commands take an explicit --seed and default to 0, and no entropy is drawn
from the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cheeger import DEFAULT_CAP, cheeger_conductance, cheeger_vertex
from .families import (
    GraphFamily,
    RhoTable,
    family_report,
    generalised_certificate,
    make_complete,
    make_cycle,
    make_hypercube,
    random_positive_measure,
    random_regular,
)
from .graphs import MeasuredGraph, VertexSubset, dump_graph, load_conductance, load_graph
from .inequalities import DEFAULT_TOLERANCE, DEFAULT_TRIALS, THEOREMS
from .poincare import optimal_lp_constant
from .rationals import InputError, format_rational, parse_rational
from .spectral import delta_operator, lambda_operator, spectrum
from .walks import auxiliary_walk, from_conductance

_USAGE_ERRORS = (InputError, OSError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.monotonic()
    try:
        code, results = args.handler(args)
        if args.command == "generate":
            # generate writes a plain graph document, not a report envelope
            text = results
        else:
            report = {
                "command": ["mexp"] + (argv if argv is not None else sys.argv[1:]),
                "inputs": _inputs_digest(args),
                "results": results,
                "timing": {"seconds": time.monotonic() - started},
                "version": __version__,
                "seed": getattr(args, "seed", None),
            }
            text = json.dumps(_jsonable(report), indent=2)
    except _USAGE_ERRORS as exc:
        print(f"mexp: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (say `| head`): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


@functools.lru_cache(maxsize=None)  # parse_args reads the parser and returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexp",
        description="expansion invariants of finite measured graphs",
    )
    parser.add_argument("--version", action="version", version=f"mexp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def cap(p):
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="exact-enumeration cap on the vertex count")

    def slack(text):
        value = float(text)
        if not 0 <= value < math.inf:
            raise ValueError(text)
        return value

    def tolerance(p):
        p.add_argument("--tolerance", type=slack, default=DEFAULT_TOLERANCE, help="float comparison slack")

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cheeger", help="exact Cheeger constant with witness")
    p.add_argument("--input", required=True)
    p.add_argument("--flavor", choices=["vertex", "conductance"], default="vertex")
    cap(p)
    p.set_defaults(handler=_cmd_cheeger)

    p = sub.add_parser("spectrum", help="eigenvalues and spectral gap of a graph operator")
    p.add_argument("--input", required=True)
    p.add_argument("--operator", choices=["delta", "lambda"], default="delta")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("poincare", help="numerical search for the optimal Lp constant")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--restarts", type=int, default=64)
    seed(p)
    p.set_defaults(handler=_cmd_poincare)

    p = sub.add_parser("verify", help="check a named expansion inequality")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--p", type=float, default=2.0, help="exponent for lp-poincare")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="random functions for coarea / lp-poincare")
    p.add_argument("--set-a", default=None, help="comma-separated vertex labels")
    p.add_argument("--set-b", default=None, help="comma-separated vertex labels")
    cap(p)
    tolerance(p)
    seed(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("family", help="per-member invariants and family verdicts")
    p.add_argument("--dir", required=True, help="directory of graph JSON files, sorted by name")
    p.add_argument("--threshold", required=True, help="expansion threshold as p/q")
    cap(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("certify", help="generalised-expander certificate for a family")
    p.add_argument("--dir", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", default=None, help="JSON file with a nondecreasing modulus table")
    p.add_argument("--emit-nu", action="store_true", help="include the full pair measures")
    cap(p)
    tolerance(p)
    seed(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("generate", help="write a named graph document to stdout")
    p.add_argument("kind", choices=_GENERATORS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--measure", choices=["counting", "rationals"], default="counting")
    seed(p)
    p.set_defaults(handler=_cmd_generate)

    return parser


# -- loading helpers ---------------------------------------------------------


def _read_json(path, **options):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), **options)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None


def _read_document(path: str):
    doc = _read_json(path)
    graph = load_graph(doc)
    return graph, load_conductance(doc, graph)


def _walk_for(graph: MeasuredGraph, conductance):
    """File conductance when present, the auxiliary walk otherwise."""
    if conductance is not None:
        return from_conductance(graph, conductance)
    return auxiliary_walk(graph)


def _resolve_labels(graph: MeasuredGraph, text: str) -> VertexSubset:
    """Each token names the vertex it matches as a string, else as the JSON
    value it spells (an int, a float, true, false, null)."""
    indices = []
    for token in filter(None, map(str.strip, text.split(","))):
        for read in (str, json.loads):
            try:
                indices.append(graph.index_of(read(token)))
                break
            except (ValueError, RecursionError, InputError):  # JSONDecodeError is a ValueError; [[[... recurses
                pass
        else:
            raise InputError(f"unknown vertex label {token!r}")
    return VertexSubset.from_indices(graph.n, indices)


def _inputs_digest(args) -> dict:
    digest = {}
    for attr in ("input", "dir", "rho"):
        path = getattr(args, attr, None)
        if path is None:
            continue
        p = Path(path)
        entry = {"path": str(p)}
        if p.is_file():
            entry["sha256"] = hashlib.sha256(p.read_bytes()).hexdigest()
        digest[attr] = entry
    return digest


# Result fields reported under the paper's symbol; every other field keeps
# its name.
_KEYS = {
    "size": "n",
    "max_valency": "K",
    "ratio_bound": "s",
    "peak_fraction": "gamma",
    "ghostly_verdict": "ghostly",
    "pair_measure": "nu",
}


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return {_KEYS.get(f.name, f.name): _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# -- command handlers ----------------------------------------------------------


def _cmd_cheeger(args):
    graph, conductance = _read_document(args.input)
    if args.flavor == "vertex":
        cert = cheeger_vertex(graph, cap=args.cap)
    else:
        cert = cheeger_conductance(_walk_for(graph, conductance), graph.measure, cap=args.cap)
    return 0, {
        "value": cert.value,
        "witness": [graph.labels[v] for v in cert.witness.indices()],
        "flavor": cert.flavor,
    }


def _cmd_spectrum(args):
    graph, conductance = _read_document(args.input)
    if args.operator == "delta":
        op = delta_operator(_walk_for(graph, conductance))
    else:
        op = lambda_operator(graph)
    return 0, {"operator": args.operator, **_jsonable(spectrum(op))}


def _cmd_poincare(args):
    graph, conductance = _read_document(args.input)
    return 0, optimal_lp_constant(_walk_for(graph, conductance), args.p, restarts=args.restarts, seed=args.seed)


def _cmd_verify(args):
    graph, conductance = _read_document(args.input)
    verifier, on_walk, names = THEOREMS[args.theorem]
    subject = _walk_for(graph, conductance) if on_walk else graph
    options = {"p": args.p, "trials": args.trials, "seed": args.seed, "cap": args.cap, "tol": args.tolerance}
    if args.theorem == "distance-bound":
        if args.set_a is None and args.set_b is None:
            options["set_a"], options["set_b"] = _random_disjoint_pair(graph, args.seed)
        elif args.set_a is None or args.set_b is None:
            raise InputError("distance-bound needs both --set-a and --set-b, or neither")
        else:
            options["set_a"] = _resolve_labels(graph, args.set_a)
            options["set_b"] = _resolve_labels(graph, args.set_b)
    report = verifier(subject, **{name: options[name] for name in names})
    return (0 if report.holds else 1), report


def _random_disjoint_pair(graph: MeasuredGraph, seed: int):
    rng = random.Random(seed)
    vertices = list(range(graph.n))
    rng.shuffle(vertices)
    size_a = rng.randrange(1, graph.n)
    size_b = rng.randrange(1, graph.n - size_a + 1)
    set_a = VertexSubset.from_indices(graph.n, vertices[:size_a])
    set_b = VertexSubset.from_indices(graph.n, vertices[size_a : size_a + size_b])
    return set_a, set_b


def _load_family(directory: str) -> GraphFamily:
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    files = sorted(root.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no *.json graph files in {directory}")
    return GraphFamily(members=tuple(load_graph(_read_json(path)) for path in files))


def _cmd_family(args):
    family = _load_family(args.dir)
    threshold = parse_rational(args.threshold, where="--threshold")
    return 0, family_report(family, threshold, cap=args.cap)


def _load_rho(path: str) -> RhoTable:
    table = _read_json(path, parse_int=float)
    if not isinstance(table, list) or not all(type(x) is float for x in table):
        raise InputError(f"{path}: expected a JSON array of numbers")
    return RhoTable(tuple(table))


def _cmd_certify(args):
    family = _load_family(args.dir)
    rho = None if args.rho is None else _load_rho(args.rho)
    cert = generalised_certificate(family, args.p, rho_plus=rho, seed=args.seed, cap=args.cap)
    violated = any(
        not (r.symmetric and r.probability and r.supported_off_cutoff)
        or (r.max_tested_energy is not None and r.max_tested_energy > cert.energy_bound + args.tolerance)
        for r in cert.rows
        if r.skipped is None
    )
    if not args.emit_nu:
        cert = dataclasses.replace(cert, rows=tuple(dataclasses.replace(r, pair_measure=None) for r in cert.rows))
    results = _jsonable(cert)
    for row in results["rows"]:
        if row["nu"] is None:  # not asked for, or a skipped member
            del row["nu"]
    return (1 if violated else 4 if cert.untested else 0), results


# kind -> (its parameters, in the order a missing one is reported; a builder taking them and the seeded rng)
_GENERATORS = {
    "cycle": (("n",), lambda n, rng: make_cycle(n)),
    "complete": (("n",), lambda n, rng: make_complete(n)),
    "hypercube": (("d",), lambda d, rng: make_hypercube(d)),
    "random_regular": (("n", "k"), random_regular),
}


def _cmd_generate(args):
    names, build = _GENERATORS[args.kind]
    given = {"n": args.n, "k": args.k, "d": args.d}
    for name, value in given.items():
        if value is not None and name not in names:
            raise InputError(f"generator {args.kind!r} takes no parameter {name}")
    values = [given[name] for name in names]
    if None in values:
        raise InputError(f"generator {args.kind!r} needs parameter {names[values.index(None)]}")
    rng = random.Random(args.seed)
    graph = build(*values, rng)
    if args.measure == "rationals":  # drawn after the graph, from the same rng
        graph = graph.with_measure(random_positive_measure(graph.n, rng))
    return 0, dump_graph(graph)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

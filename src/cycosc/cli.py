"""Command-line front end.

Subcommands:
    spectrum     level-by-level comparison of H0 eigenvalues with the closed form
    nf           print the canonical normal form of an expression
    commutator   shorthand for nf "[X, Y]"
    verify       run identity suites and write the JSON report
    wconst       evaluate higher-spin structure constants and central charges

Exit codes: 0 success (discrepancies included unless --strict-paper),
1 identity failure under the active policy, 2 usage or parse errors, a
malformed config, a number or expression too large or deep to evaluate, or a
non-finite number in an output, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .errors import CycoscError, NotFinite
from .expr import Commutator, parse
from .fock import build_rep, dump_matrices, spectrum, spectrum_closed_form
from .identities import SUITES, run_suite
from .normal_order import NormalForm, normal_form
from .params import AlgebraParams, cyclic_order, params_from_json, whole_number
from .winf import N_READINGS, PHI_READINGS, winf_structure

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_IO = 3

_INF = float("inf")


def _flag_vectors(args) -> dict:
    """--alpha / --kappa in the config's shapes (0.3:0.1 is [0.3, 0.1]); empty parts skipped."""
    vectors = {}
    if args.alpha is not None:
        vectors["alpha"] = [float(part) for part in args.alpha.split(",") if part]
    if args.kappa is not None:
        pairs = (part.partition(":") for part in args.kappa.split(",") if part)
        vectors["kappa"] = [[float(real), float(imag) if sep else 0.0] for real, sep, imag in pairs]
    return vectors


def _load_config(args) -> dict:
    """The parsed --config file, or {} without one; its top level must be an object."""
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise _IOFailure(f"cannot read config {args.config}: {err}") from err
    if not isinstance(cfg, dict):
        raise CycoscError(f"config {args.config} must hold a JSON object, got {cfg!r}")
    return cfg


class _IOFailure(Exception):
    pass


def _resolve_params(args, cfg: dict) -> AlgebraParams:
    """One parameter object for params_from_json; a vector flag replaces both config vectors."""
    lam = args.lam if args.lam is not None else cfg.get("lambda", 2)
    vectors = _flag_vectors(args) or {k: cfg[k] for k in ("alpha", "kappa") if k in cfg}
    if not vectors:  # undeformed: lambda zeros
        vectors = {"alpha": [0.0] * cyclic_order(lam)}
    return params_from_json({"lambda": lam, **vectors})


def _resolve_dim(args, cfg: dict) -> int:
    return whole_number(args.dim if args.dim is not None else cfg.get("dim", 64), "dim")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise _IOFailure(f"cannot write {out_path}: {err}") from err
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    """The one JSON layout of every output: the bytes of json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False) and a final newline.

    With an indent, json.dumps leaves its C encoder for nested Python generators: a lambda 5,
    dim 64 verify report takes 6.9 ms there and 4.2 ms in this writer, which walks the value
    once into one list (a fresh process on a Xeon core).  A non-finite number raises
    ValueError (exit 2); a type JSON lacks, or a key that is not a str, raises TypeError.
    """
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list, newline: str):
    """Append `value`; `newline` is a newline and the indent of its closing bracket."""
    keyed = isinstance(value, dict)
    if keyed:
        entries, close = sorted(value.items()), "}"
    elif isinstance(value, (list, tuple)):
        entries, close = value, "]"
    else:
        out.append(_scalar(value))
        return
    if not entries:
        out.append("{}" if keyed else "[]")
        return
    inner = newline + "  "
    separator = ("{" if keyed else "[") + inner
    for item in entries:
        if keyed:
            key, item = item
            out.append(separator + _encode_str(key) + ": ")  # TypeError for a key not a str
        else:
            out.append(separator)
        separator = "," + inner
        kind = type(item)  # str, float and int leaves inline, without a call per leaf
        if kind is str:
            out.append(_encode_str(item))
        elif kind is float and -_INF < item < _INF:
            out.append(float.__repr__(item))
        elif kind is int:
            out.append(int.__repr__(item))
        elif isinstance(item, (dict, list, tuple)):
            _write(item, out, inner)
        else:
            out.append(_scalar(item))
    out.append(newline + close)


def _scalar(value) -> str:
    """A JSON scalar as json.dumps writes it; float and int subclasses as their base type."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if -_INF < value < _INF:
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_matrix_dump(rep, path: str):
    _emit(_json(dump_matrices(rep)), path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    params = _resolve_params(args, cfg)
    dim = _resolve_dim(args, cfg)
    rep = build_rep(params, dim)
    if args.dump_matrices:
        _write_matrix_dump(rep, args.dump_matrices)
    computed = spectrum(rep)
    closed = spectrum_closed_form(params, dim - 1)
    rows = [
        {
            "n": n,
            "energy": float(computed[n]),
            "closed_form": float(closed[n]),
            "abs_diff": float(abs(computed[n] - closed[n])),
        }
        for n in range(dim - 1)
    ]
    if args.format == "json":
        _emit(_json(rows), args.out)
    else:
        lines = [f"{'n':>4}  {'energy':>18}  {'closed form':>18}  {'|diff|':>10}"]
        for row in rows:
            lines.append(
                f"{row['n']:>4}  {row['energy']:>18.12f}  "
                f"{row['closed_form']:>18.12f}  {row['abs_diff']:>10.2e}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def format_nf_text(nf: NormalForm) -> str:
    """Human layout: one line per monomial, sorted by (p, q, r)."""
    lines = []
    for (p, q, r), c in nf.sorted_terms():
        if abs(c.imag) < 1e-14 * max(1.0, abs(c)):  # round-off relative to the coefficient
            coeff = f"{c.real:.12g}"
        else:
            coeff = f"({c.real:.12g},{c.imag:.12g})"
        parts = []
        if p:
            parts.append("ad" if p == 1 else f"ad^{p}")
        if q:
            parts.append("a" if q == 1 else f"a^{q}")
        if r:
            parts.append("K" if r == 1 else f"K^{r}")
        mono = " ".join(parts) if parts else "I"
        lines.append(f"{coeff} {mono}")
    if not lines:
        lines = ["0"]
    return "\n".join(lines) + "\n"


# One term of format_nf_json: its five fields as _json writes them, keys sorted.
_NF_TERM = ('\n    {\n      "im": %r,\n      "p": %r,\n      "q": %r,\n      "r": %r,'
            '\n      "re": %r\n    }')


def format_nf_json(nf: NormalForm) -> str:
    """The bytes of _json({"lambda": nf.lam, "terms": [{"p", "q", "r", "re", "im"}, ...]}).

    Each term is written from one template, not walked as a dict; a
    non-finite coefficient raises the ValueError _json raises for it.
    """
    terms = []
    for (p, q, r), c in nf.sorted_terms():
        if not cmath.isfinite(c):
            _scalar(c.imag)  # "im" is written first
            _scalar(c.real)
        terms.append(_NF_TERM % (c.imag, p, q, r, c.real))
    listed = "[" + ",".join(terms) + "\n  ]" if terms else "[]"
    return '{\n  "lambda": %r,\n  "terms": %s\n}\n' % (nf.lam, listed)


def cmd_nf(args) -> int:
    params = _resolve_params(args, _load_config(args))
    tree = parse(args.expr) if args.command == "nf" else _commutator(args)
    try:
        nf = normal_form(tree, params)
    except NotFinite as err:  # a finite coefficient whose modulus passes DBL_MAX
        raise NotFinite(f"the normal form of {args.expr!r} overflows: {err.__cause__}") from err
    if not all(cmath.isfinite(c) for c in nf.terms.values()):
        raise NotFinite(f"the normal form of {args.expr!r} has a non-finite coefficient")
    text = format_nf_json(nf) if args.format == "json" else format_nf_text(nf)
    _emit(text, args.out)
    return EXIT_OK


def _commutator(args) -> Commutator:
    """[X, Y] of commutator's operands, each parsed on its own so an error counts within it."""
    operands = []
    for side, text in (("left", args.left), ("right", args.right)):
        try:
            operands.append(parse(text))
        except CycoscError as err:
            raise CycoscError(f"{side} operand {text!r}: {err}") from err
    args.expr = f"[{args.left}, {args.right}]"  # the text cmd_nf's errors name
    return Commutator(*operands)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    params = _resolve_params(args, cfg)
    dim = _resolve_dim(args, cfg)
    suites = ("all",) if args.suite is None else tuple(args.suite.split(","))
    report = run_suite(params, dim, suites)
    report["config"]["strict_paper"] = bool(args.strict_paper)
    payload = _json(report)
    if args.out:
        _emit(payload, args.out)
    if args.dump_matrices:
        _write_matrix_dump(build_rep(params, dim), args.dump_matrices)
    summary = report["summary"]
    if args.format == "json":
        if not args.out:
            sys.stdout.write(payload)
    else:
        sys.stdout.write(
            "pass: {pass}  discrepancy: {discrepancy}  fail: {fail}  "
            "not-applicable: {not_applicable}\n".format(**summary)
        )
        if args.out:
            sys.stdout.write(f"report written to {args.out}\n")
    if summary["fail"] > 0:
        return EXIT_IDENTITY
    if args.strict_paper and summary["discrepancy"] > 0:
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_wconst(args) -> int:
    payload = winf_structure(args.i, args.j, args.l, args.m, args.n,
                             n_reading=args.N_reading, phi_reading=args.phi_reading)
    if args.format == "json":
        _emit(_json(payload), args.out)
        return EXIT_OK
    lines = [
        f"c_{args.i} = {payload['c_i']}",
        f"c_{args.i}({args.m}) = {payload['c_i_m']:.12g}",
        f"N[{args.N_reading}] = {payload['value_N']:.12g}",
        f"phi[{args.phi_reading}] = {payload['value_phi']:.12g}",
        f"g = {payload['value_g']:.12g}",
    ]
    lines += [f"{key} = {value:.12g}" for key, value in sorted(payload["dual_readings"].items())]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_param_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=int, default=None,
                     help="cyclic order (default 2)")
    sub.add_argument("--alpha", default=None,
                     help="comma-separated alpha vector, e.g. 0.5,-0.5")
    sub.add_argument("--kappa", default=None,
                     help="comma-separated kappa values, re or re:im, e.g. 0.3:0.1,0.3:-0.1")
    sub.add_argument("--config", default=None, help="JSON parameter/config file")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_rep_flags(sub):
    """Flags of the subcommands that build the Fock realization."""
    sub.add_argument("--dim", type=int, default=None, help="truncation dimension (default 64)")
    sub.add_argument("--dump-matrices", dest="dump_matrices", default=None,
                     help="write generator matrices as JSON to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycosc",
        description="verification toolkit for cyclic-group extended oscillator algebras",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="Hamiltonian levels vs the closed form")
    _add_param_flags(sp)
    _add_rep_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    nf = subs.add_parser("nf", help="normal form of an operator expression")
    nf.add_argument("expr", help="expression, e.g. '[a, ad^3]'")
    _add_param_flags(nf)
    nf.set_defaults(func=cmd_nf)

    cm = subs.add_parser("commutator", help="normal form of [X, Y]")
    cm.add_argument("left")
    cm.add_argument("right")
    _add_param_flags(cm)
    cm.set_defaults(func=cmd_nf)

    vf = subs.add_parser("verify", help="run identity suites and emit the report")
    _add_param_flags(vf)
    _add_rep_flags(vf)
    vf.add_argument("--suite", default=None,
                    help=f"comma list from {{{','.join(SUITES)}}} or 'all' (default)")
    vf.add_argument("--strict-paper", dest="strict_paper", action="store_true",
                    help="exit nonzero when any published constant is contradicted")
    vf.set_defaults(func=cmd_verify)

    wc = subs.add_parser("wconst", help="higher-spin structure constants")
    wc.add_argument("--i", type=int, default=0)
    wc.add_argument("--j", type=int, default=0)
    wc.add_argument("--l", type=int, default=0)
    wc.add_argument("--m", type=int, default=0)
    wc.add_argument("--n", type=int, default=0)
    wc.add_argument("--phi-reading", dest="phi_reading", choices=PHI_READINGS,
                    default="literal")
    wc.add_argument("--N-reading", dest="N_reading", choices=N_READINGS,
                    default="literal")
    wc.add_argument("--out", default=None)
    wc.add_argument("--format", choices=("text", "json"), default="text")
    wc.set_defaults(func=cmd_wconst)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _IOFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (CycoscError, ValueError, OverflowError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

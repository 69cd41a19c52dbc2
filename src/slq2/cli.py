"""Command line interface.

Subcommands expose normalisation, the Hopf operations, corepresentation
builders, the decomposition driver (at ell = 3), braiding tables, and the
verification suites.  The five element commands (normalize, coproduct,
counit, antipode, hopf-check) are registered from one table and read their
element through one reader, ``_element``, which also refuses an element
whose estimated work is above the size cap.  All output is deterministic:
monomials and labels are emitted in a fixed canonical order, and JSON
payloads carry a schema version field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import partial, reduce

from . import corep, hopf, parsing, verify
from .braid import DEFAULT_CONVENTION, CONVENTIONS, braiding_matrix
from .corep import build_v, build_w, build_y, decompose, tensor, tree_layers
from .cyclo import cyclotomic_polynomial, validate_ell
from .parsing import (
    ParseError,
    element_to_json,
    element_to_latex,
    matrix_to_json,
    matrix_to_latex,
    mode_from_name,
    parse_element,
    scalar_to_latex,
)


def _emit(payload, fmt: str, text_fn, latex_fn=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "latex":
        print(latex_fn())
    else:
        print(text_fn())


# A named corep of dimension d and highest weight w (ell n for W_n, m for V_m
# and Y_m) costs about (d^4 + w^2) (deg Phi_ell + 8)^2 integer steps to build;
# a braiding table of two factors within these caps adds at most about 0.3 s.
# The root orders of a verification sweep are distinct and at most
# MAX_SWEEP_ELL, the largest ell any claim supports (21), so the largest
# sweep is --ell 3 5 ... 21; a larger ell would run no claim.  Larger input
# exits with status 2 (README, Notes).
MAX_COREP_COST = 4 * 10**8
MAX_EXPR_DIM = 64
MAX_SWEEP_ELL = max(row.largest_ell for row in verify.CLAIMS)


def _scalar_size(ell: int) -> int:
    validate_ell(ell)
    return len(cyclotomic_polynomial(ell)) + 7  # deg Phi_ell + 8


# An element command is capped by an estimate of its work past the parse,
# in the same steps, fitted on a grid of timings (README, Notes).  A word
# a^t b^j c^k (or d^-t) of degree n has coefficients of about (n+1)^2 / 2
# nonzero entries, so a product of two costs about s min(s, (n+1)^2 / 2)
# steps, and a q-binomial row of length m about 16 m^2 s.  With
# X = (min(t+j, k)+1)(min(j, t+k)+1) the terms of the cross expansions,
# the coproduct forms about 2 (t+1)(j+1)(k+1) X products, 4 times dearer
# in F and Fhat, and one row per letter; the Hopf check also takes the
# coproduct of every leg, about N^4 X / 4 more products, and in F and Fhat,
# where the d of a leg becomes a^(L-1) terms (L the order of a),
# 8 L (j+k+1)^3 (min(t, j+k)+1) products of s^2 steps when b or c occurs.
# Only the nonzero entries of a q-binomial row count: (m // ell + 1)
# (m % ell + 1) for the power g^m of a word, instead of m + 1, and on
# average N = min(n+1, (n // ell + 1)(ell + 1) / 2) for the legs.  The
# Hopf check now proves its sums zero with integer products
# (``cyclo._sums_vanish``) and forms no scalar product for them; its
# estimate still counts the leg coproduct builds, which it keeps, and the
# products it no longer forms, and was not refit.
def _coproduct_steps(x, hopf_check: bool = False) -> int:
    ell, s, period = x.ell, _scalar_size(x.ell), x.mode.a_period

    def nz(m):
        return (m // ell + 1) * (m % ell + 1)

    steps = 0
    for t, j, k in x.terms:
        t, n = abs(t), abs(t) + j + k
        cross = (min(t + j, k) + 1) * (min(j, t + k) + 1)
        products = (8 if period else 2) * nz(t) * nz(j) * nz(k) * cross
        if hopf_check:
            products += min(n + 1, (n // ell + 1) * (ell + 1) // 2) ** 4 * cross // 4
            if period and (j or k):
                steps += 8 * period * (j + k + 1) ** 3 * (min(t, j + k) + 1) * s * s
        steps += products * s * min(s, (n + 1) ** 2 // 2) + 16 * (t * t + j * j + k * k) * s
    return steps


def _antipode_steps(x) -> int:
    """S of a word is one word, but F and Fhat eliminate the d of S(a^t):
    a row of length t per distinct t and 2 t products per word."""
    if not x.mode.is_quotient:
        return 0
    s = _scalar_size(x.ell)
    return sum(16 * t * t * s for t in {m.t for m in x.terms}) + sum(2 * m.t * s * s for m in x.terms)


def _build_corep(family: str, index: int, ell: int):
    weight = ell * index if family == "W" else index
    if index >= 0 and ((index + 1) ** 4 + weight**2) * _scalar_size(ell) ** 2 > MAX_COREP_COST:
        raise ValueError(f"{family}{index} at ell = {ell} is above the size cap for named corepresentations")
    return {"V": build_v, "W": build_w, "Y": build_y}[family](index, ell)


def _sweep_ells(ells) -> tuple[int, ...] | None:
    """The root orders ``ells`` of a verification sweep, repeats dropped
    (None for none given); ValueError for an invalid one or one above
    MAX_SWEEP_ELL."""
    if ells is None:
        return None
    for ell in ells:
        validate_ell(ell)
        if ell > MAX_SWEEP_ELL:
            raise ValueError(f"ell = {ell} is above the size cap for verification sweeps (at most {MAX_SWEEP_ELL})")
    return tuple(dict.fromkeys(ells))


def _named_coreps(names: list[str], ell: int) -> list:
    """The coreps named V1, W2, Y3, ..., if their tensor product is small enough."""
    factors = []
    for name in names:
        m = re.fullmatch(r"([VWY])(\d+)", name.strip())
        if not m:
            raise ValueError(f"cannot parse corepresentation name {name!r} (use V1, W2, Y3, ...)")
        factors.append((m.group(1), int(m.group(2))))
    dim = math.prod(index + 1 for _, index in factors)
    if dim > MAX_EXPR_DIM:
        raise ValueError(f"{' * '.join(names)} has dimension {dim}, above the cap of {MAX_EXPR_DIM}")
    return [_build_corep(family, index, ell) for family, index in factors]


def _tree_to_json(tree) -> dict:
    if isinstance(tree, corep.Leaf):
        return {"type": "irreducible", "label": tree.irr.name, "dim": tree.dim}
    if isinstance(tree, corep.DirectSum):
        return {"type": "sum", "dim": tree.dim, "children": [_tree_to_json(c) for c in tree.children]}
    return {
        "type": "extension",
        "dim": tree.dim,
        "sub": _tree_to_json(tree.sub),
        "quotient": _tree_to_json(tree.quotient),
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _element(args):
    """The element args.expr in the algebra args.mode at root order args.ell,
    refused when the command's work on it, ``args.steps``, is above the cap."""
    x = parse_element(args.expr, mode_from_name(args.mode, args.ell))
    if args.steps(x) > MAX_COREP_COST:
        raise ValueError(f"{args.expr!r} at ell = {args.ell} in {args.mode} is above the size cap for this command")
    return x


def _emit_element(x, fmt: str) -> None:
    _emit(element_to_json(x), fmt, lambda: str(x), lambda: element_to_latex(x))


def cmd_normalize(args) -> int:
    _emit_element(_element(args), args.format)
    return 0


def cmd_coproduct(args) -> int:
    dx = hopf.coproduct(_element(args))
    terms = [
        {"left": m1.label(), "right": m2.label(), "coeff": str(c)}
        for (m1, m2), c in sorted(dx.terms.items())
    ]
    payload = {"schema": parsing.SCHEMA_VERSION, "ell": args.ell, "mode": args.mode, "terms": terms}
    _emit(payload, args.format, lambda: str(dx))
    return 0


def cmd_counit(args) -> int:
    value = hopf.counit(_element(args))
    payload = {"schema": parsing.SCHEMA_VERSION, "value": str(value)}
    _emit(payload, args.format, lambda: str(value), lambda: scalar_to_latex(value))
    return 0


def cmd_antipode(args) -> int:
    _emit_element(hopf.antipode(_element(args)), args.format)
    return 0


def cmd_hopf_check(args) -> int:
    rep = hopf.check_hopf_axioms(_element(args))
    payload = {
        "schema": parsing.SCHEMA_VERSION,
        "coassociative": rep.coassociative,
        "counital": rep.counital,
        "antipodal": rep.antipodal,
        "all_ok": rep.all_ok,
    }
    _emit(payload, args.format, lambda: "\n".join(f"{k}: {v}" for k, v in payload.items() if k != "schema"))
    return 0 if rep.all_ok else 1


def cmd_corep(args) -> int:
    flag, other = ("n", "m") if args.family == "W" else ("m", "n")
    if getattr(args, flag) is None or getattr(args, other) is not None:
        raise ValueError(f"corep --family {args.family} takes its index as --{flag}, not --{other}")
    c = _build_corep(args.family, getattr(args, flag), args.ell)
    rows = [[str(e) for e in row] for row in c.rho]
    payload = {
        "schema": parsing.SCHEMA_VERSION,
        "family": c.family,
        "ell": args.ell,
        "dim": c.dim,
        "basis": c.basis_labels,
        "rho": rows,
    }

    def text():
        lines = [f"{c.family} (dim {c.dim}), basis: {', '.join(c.basis_labels)}"]
        for row in rows:
            lines.append("[" + ", ".join(row) + "]")
        return "\n".join(lines)

    _emit(payload, args.format, text, lambda: matrix_to_latex([[element_to_latex(e) for e in row] for row in c.rho]))
    return 0


def cmd_decompose(args) -> int:
    names = [t.strip() for t in args.expr.split("*")]
    if not any(names):
        print("decompose: empty expression", file=sys.stderr)
        return 2
    if not all(names):
        print(f"decompose: empty factor in {args.expr!r} (factors are V1, W2, Y3, ... joined by *)", file=sys.stderr)
        return 2
    factors = _named_coreps(names, args.ell)
    # the driver runs at every odd ell, but the caps bound its time at ell = 3
    # only: at large ell one non-unit inverse costs deg Phi_ell - 1 products
    if args.ell != 3:
        raise ValueError("the automatic decomposition driver supports ell = 3 only")
    current = reduce(tensor, factors)
    tree = decompose(current)
    payload = {
        "schema": parsing.SCHEMA_VERSION,
        "expr": args.expr,
        "dim": current.dim,
        "tree": _tree_to_json(tree),
        "notation": tree.notation(),
        "layers": tree_layers(tree),
    }
    _emit(payload, args.format, lambda: f"{args.expr} = {tree.notation()}")
    return 0


def cmd_braid(args) -> int:
    left, right = _named_coreps([args.left, args.right], args.ell)
    bm = braiding_matrix(left, right, args.convention)
    payload = {
        "schema": parsing.SCHEMA_VERSION,
        "left": args.left,
        "right": args.right,
        "convention": args.convention,
        "rows": bm.row_labels,
        "cols": bm.col_labels,
        "entries": matrix_to_json(bm.matrix),
    }

    def text():
        lines = [f"Psi: {args.right} (x) {args.left} -> {args.left} (x) {args.right}  [{args.convention}]"]
        width = max(len(s) for row in payload["entries"] for s in row)
        for label, row in zip(bm.row_labels, payload["entries"]):
            lines.append(f"{label:>14s} | " + "  ".join(s.rjust(width) for s in row))
        return "\n".join(lines)

    _emit(payload, args.format, text, lambda: matrix_to_latex([[scalar_to_latex(x) for x in row] for row in bm.matrix.data]))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, ells=_sweep_ells(args.ell))
    return _report(report, args.format)


def _report(report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for claim in report.claims:
            print(f"{claim.status.upper()}  {claim.claim_id}: {claim.description}")
        skipped = sum(claim.skipped for claim in report.claims)
        summary = "FAILURES" if not report.all_passed else f"no failures, {skipped} skipped" if skipped else "all passed"
        print(f"suite '{report.suite}': {summary}")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the commands that read one element: name, help, handler, LaTeX output,
# estimated steps past the parse
_ELEMENT_COMMANDS = (
    ("normalize", "normal form of an algebra expression", cmd_normalize, True, lambda x: 0),
    ("coproduct", "coproduct of an element", cmd_coproduct, False, _coproduct_steps),
    ("counit", "counit of an element", cmd_counit, True, lambda x: 0),
    ("antipode", "antipode of an element", cmd_antipode, True, _antipode_steps),
    ("hopf-check", "verify the Hopf axioms on an element", cmd_hopf_check, False, partial(_coproduct_steps, hopf_check=True)),
)


def _add_common(p, mode_flag=True, latex=True):
    p.add_argument("--ell", type=int, default=3, help="odd order of the root of unity (default 3)")
    if mode_flag:
        p.add_argument("--mode", choices=["generic", "F", "Fhat"], default="generic")
    p.add_argument("--format", choices=["json", "text", "latex"] if latex else ["json", "text"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slq2",
        description="Exact computations in the quantum SL(2) coordinate algebra at odd roots of unity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, fn, latex, steps in _ELEMENT_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expr")
        _add_common(p, latex=latex)
        p.set_defaults(fn=fn, steps=steps)

    p = sub.add_parser("corep", help="coaction matrix of a corepresentation family member")
    p.add_argument("--family", choices=["V", "W", "Y"], required=True)
    p.add_argument("--m", type=int, help="index for the V/Y families")
    p.add_argument("--n", type=int, help="index for the W family")
    _add_common(p, mode_flag=False)
    p.set_defaults(fn=cmd_corep)

    p = sub.add_parser("decompose", help="decompose a tensor product expression at ell = 3")
    p.add_argument("--expr", required=True, help='e.g. "V1*V1*V1"')
    _add_common(p, mode_flag=False, latex=False)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("braid", help="braiding table of two corepresentations")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--convention", choices=list(CONVENTIONS), default=DEFAULT_CONVENTION)
    _add_common(p, mode_flag=False)
    p.set_defaults(fn=cmd_braid)

    p = sub.add_parser("braid-verify", help="run the braiding verification suite")
    p.add_argument("--ell", type=int, nargs="+", default=None,
                   help="root orders to sweep, each at most 21 (default: each claim's own root orders)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(fn=cmd_verify, suite="braid")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=["all", *verify.SUITES])
    p.add_argument("--ell", type=int, nargs="+", default=None,
                   help="root orders to sweep, each at most 21 (default: each claim's own root orders)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send the unwritten rest,
        # and the flush at exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

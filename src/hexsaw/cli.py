"""Command-line surface: every identity check and computation of the
package, with machine-readable JSON or CSV reports.

Exit codes: 0 when every checked property holds, 1 when a check is
falsified, 2 on usage errors or a report that cannot be written, 3 when
a solver did not converge, a size cap was hit or a check asks for more
precision than the solver has.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from . import bridges as br
from . import domains as dm
from . import enumeration as en
from . import identity as idt
from . import strip as sp
from .errors import (
    CapacityError,
    HexsawError,
    InvalidParameterError,
    NonConvergenceError,
)
from .model import constants

SCHEMA_VERSION = 1
Y_STAR = constants(0, "dilute", "float").y_star   # 1 + sqrt(2)


def _number(text: str) -> Fraction:
    """An integer, p/q or decimal, exactly; nan and inf are not numbers."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse number {text!r}") from exc


def _heights(Tmax: int) -> range:
    if Tmax < 1:
        raise InvalidParameterError(f"need --Tmax >= 1, got {Tmax}")
    return range(1, Tmax + 1)


def _constants(args):
    return constants(_number(args.n), args.regime, args.mode)


def _emit(args, doc: dict, rows: list[dict] | None = None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=1, default=str) + "\n"
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(args, results, ok: bool, t0: float) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "backend": en.backend_name(),
        "command": args.command,
        "config": config,
        "results": results,
        "ok": bool(ok),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }


def _residual_results(rep, **extra) -> dict:
    """The results of an identity check; ``extra`` entries follow the mode."""
    return {
        "kind": rep.kind,
        "mode": rep.mode,
        **extra,
        "max_abs_residual": rep.max_abs,
        "exact_zero": rep.exact_zero,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_local(args):
    consts = _constants(args)
    domain = dm.build_trapezoid(args.T, args.L)
    rep = idt.check_local(domain, consts, _number(args.y), with_loops=args.with_loops)
    return _residual_results(rep), rep.ok, None


def _cmd_verify_global(args):
    rep = idt.check_global_trapezoid(args.T, args.L, _constants(args), _number(args.y),
                                     with_loops=args.with_loops)
    results = _residual_results(rep, residual=str(rep.residuals["global"]))
    return results, rep.ok, None


def _cmd_verify_rectangle(args):
    consts = _constants(args)
    rep = idt.check_global_rectangle(args.T, args.L, consts,
                                     with_loops=args.with_loops)
    return _residual_results(rep), rep.ok, None


def _operator_size(T: int) -> dict:
    """Size of the height-T transfer operator the solvers' cached build has."""
    op = sp.build_transfer(T)
    return {"states": op.state_count, "transitions": len(op.transitions)}


def _cmd_strip_mu(args):
    y = _number(args.y)
    rows = []
    prev = None
    ok = True
    for T in _heights(args.Tmax):
        est = sp.growth_mu(T, y)
        rows.append({"T": T, "y": est.y, "mu_T": est.mu, "error": est.error,
                     **_operator_size(T)})
        if prev is not None and abs(est.mu - prev) <= sp.RADIUS_TOL * est.mu:
            raise NonConvergenceError(f"mu_{T - 1} = {prev!r} and mu_{T} = {est.mu!r} agree "
                                      "within the radius tolerance: increase cannot be decided")
        if prev is not None and not est.mu > prev:
            ok = False
        if y == 1 and not est.mu < sp.MU_BULK:
            ok = False
        prev = est.mu
    return {"rows": rows, "mu_bulk": sp.MU_BULK}, ok, rows


def _cmd_y_seq(args):
    rows = []
    prev = None
    ok = True
    for T in _heights(args.Tmax):
        y_t = sp.solve_yT(T, tol=args.tol)
        rows.append({"T": T, "y_T": y_t, "y_star": Y_STAR,
                     "margin": y_t - Y_STAR, **_operator_size(T)})
        if y_t - Y_STAR <= 1e-9:
            ok = False
        if prev is not None and not y_t < prev:
            ok = False
        prev = y_t
    return {"rows": rows}, ok, rows


def _cmd_strip_identity(args):
    rep = sp.check_strip_identity(args.T, _number(args.y), mode=args.mode)
    return _residual_results(rep), rep.ok, None


def _cmd_bounds(args):
    y_grid = tuple(_number(t) for t in args.y_grid.split(","))
    rep = sp.check_bounds(args.Tmax, y_grid, mode=args.mode)
    return rep, rep["ok"], rep["checks"]


def _cmd_kesten(args):
    try:
        ns = [int(t) for t in args.N.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"--N: need comma-separated integers, got {args.N!r}") from exc
    stats = br.kesten_partials(ns)
    rows = [
        {
            "N": s.N,
            "kesten_partial": s.partial_sum_float,
            "f_h": {str(h): s.f_h[h].to_float() for h in sorted(s.f_h)},
            "mean_height": s.mean_height_float,
        }
        for s in stats
    ]
    ok = all(s.partial_sum_float < 1.0 for s in stats)
    by_n = sorted(stats, key=lambda s: s.N)
    for prev, s in zip(by_n, by_n[1:]):
        # every bridge has even length, so a range (previous N, N]
        # without an even length adds nothing to the sum
        if s.N // 2 > prev.N // 2:
            ok = ok and s.partial_sum_float > prev.partial_sum_float
        else:
            ok = ok and s.partial_sum == prev.partial_sum
    flat = [
        {"N": r["N"], "kesten_partial": r["kesten_partial"],
         "mean_height": r["mean_height"]}
        for r in rows
    ]
    return {"rows": rows}, ok, flat


def _cmd_stickbreak_sweep(args):
    if args.max_len < 2:
        # a check of no pair has no verdict
        raise InvalidParameterError(
            f"need --max-len >= 2, got {args.max_len}: no bridge is shorter than 2 steps")
    sweep = br.stickbreak_sweep(args.max_len)
    first = sweep.first_failure
    if first is not None:
        turns, i, j = first
        first = {"turns": "".join(turns), "i": i, "j": j}
    results = {"max_len": args.max_len, "bridges": sweep.used,
               "pairs_checked": sweep.pairs, "failures": sweep.failures,
               "bridges_enumerated": sweep.bridges, "first_failure": first}
    return results, sweep.failures == 0 and sweep.pairs > 0, None


def _cmd_sample(args):
    bridge, report = br.sample_renewal(args.N, args.k, args.seed)
    report["turns"] = "".join(bridge.turns)
    ok = report["renewal_points"] == args.k + 1
    return report, ok, None


def _cmd_half_plane(args):
    """C_n^+(y) >= y^((n+1)//2), decided exactly at the parsed y and
    reported as floats.  The bound is the weight of one walk, the surface
    zigzag, whose (n+1)//2 contacts are the most a walk of length n has, so
    it holds at every y > 0."""
    y = _number(args.y)
    constants(0, "dilute", "float").surface_weight(y)  # refuses y <= 0
    counts = en.half_plane_counts(args.N)
    rows = []
    ok = True
    for n in range(args.N + 1):
        total = sum(c for (m, i), c in counts.items() if m == n)
        weighted = sum(c * y ** i for (m, i), c in counts.items() if m == n)
        bound = y ** ((n + 1) // 2)
        if max(weighted, bound) > sys.float_info.max:
            raise CapacityError(f"C_{n}^+ at y = {float(y):.6g} is past the float range "
                                f"(max {sys.float_info.max:.6g})")
        if n and weighted < bound:
            ok = False
        rows.append({"n": n, "walks": total, "C_n_plus": float(weighted),
                     "zigzag_bound": float(bound)})
    return {"rows": rows}, ok, rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, *, model=False, TL=False, rows=False, mode=False):
    if model:
        p.add_argument("--n", default="0", help="loop weight (rational or decimal)")
        p.add_argument("--regime", default="dilute", choices=["dilute", "dense"])
        p.add_argument("--with-loops", action="store_true",
                       help="include closed-loop configurations")
    if model or mode:
        p.add_argument("--mode", default="auto", choices=["auto", "exact", "float"])
    if TL:
        p.add_argument("--T", type=int, required=True, help="domain height")
        p.add_argument("--L", type=int, required=True, help="domain half-width")
    p.add_argument("--output", default=None, help="write report to this path")
    if rows:  # a subcommand without rows has no CSV form
        p.add_argument("--format", default="json", choices=["json", "csv"])


def _args(*extra, **common):
    """An argument adder: ``_add_common``'s groups, then each (flag, options)."""
    def add(p):
        _add_common(p, **common)
        for flag, options in extra:
            p.add_argument(flag, **options)
    return add


_Y = ("--y", {"default": "1"})
_TMAX = ("--Tmax", {"type": int, "default": 4})
_TOL_HELP = ("width of the final bracket on each y_T, in [0, 1e-2]; 0 runs to adjacent "
             "floats, but the spectral radius is only settled to about 1e-13 relative, so "
             "a width below that is no error bound (default 1e-8)")

#: name -> (help, argument adder, handler), in the order ``--help`` lists them
COMMANDS = {
    "verify-local": ("vertex identity on a trapezoid", _args(
        ("--y", {"default": "1", "help": "surface weight, positive and finite"}),
        model=True, TL=True), _cmd_verify_local),
    "verify-global": ("boundary identity on a trapezoid", _args(_Y, model=True, TL=True),
                      _cmd_verify_global),
    "verify-rectangle": ("boundary identity on a rectangle", _args(model=True, TL=True),
                         _cmd_verify_rectangle),
    "strip-mu": ("strip growth rates mu_T", _args(_TMAX, _Y, rows=True), _cmd_strip_mu),
    "y-seq": ("critical strip fugacities y_T", _args(
        _TMAX, ("--tol", {"type": float, "default": 1e-8, "help": _TOL_HELP}), rows=True),
        _cmd_y_seq),
    "strip-identity": ("arch/bridge identity in a strip", _args(
        ("--T", {"type": int, "required": True}), _Y, mode=True), _cmd_strip_identity),
    "bounds": ("strip inequality suite", _args(
        ("--Tmax", {"type": int, "default": 3}), ("--y-grid", {"default": "1,3/2,2"}),
        rows=True, mode=True), _cmd_bounds),
    "kesten": ("truncated irreducible-bridge sums", _args(
        ("--N", {"default": "4,8,12,16", "help": "comma-separated truncations"}), rows=True),
        _cmd_kesten),
    "stickbreak-sweep": ("exhaustive stickbreak property check", _args(
        ("--max-len", {"type": int, "default": 10, "dest": "max_len"})),
        _cmd_stickbreak_sweep),
    "sample": ("truncated renewal sampler", _args(
        ("--N", {"type": int, "default": 12, "help": "factor length truncation"}),
        ("--k", {"type": int, "default": 10, "help": "number of factors"}),
        ("--seed", {"type": int, "default": 0})), _cmd_sample),
    "half-plane": ("half-plane walk partition sums", _args(
        ("--N", {"type": int, "default": 10, "help": "maximum length"}), _Y, rows=True),
        _cmd_half_plane),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it
    names one: building all of them costs each run a few milliseconds.
    Usage lines and errors read the same either way."""
    ap = argparse.ArgumentParser(
        prog="hexsaw",
        description="Exact identities for the honeycomb loop model "
        "with a surface fugacity.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    one = command in COMMANDS
    # with one subparser, the usage line still lists every command
    metavar = "{%s}" % ",".join(COMMANDS) if one else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if one else COMMANDS:
        help_, add_args, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        add_args(p)
        p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        results, ok, rows = args.func(args)
    except (CapacityError, NonConvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (HexsawError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    doc = _document(args, results, ok, t0)
    try:
        _emit(args, doc, rows)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report to {args.output or 'stdout'}: "
                         f"{exc.strerror or exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: build chains, measure gaps, search, export meshes.

Every command is deterministic for a fixed configuration: rerunning writes
identical bytes.  Output files are written atomically (temp file + rename).

Exit codes: 0 success, 2 bad configuration, 3 precision failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from operator import itemgetter

from mpmath import mp, mpf

from . import __version__
from .bary import check_exact_length
from .embedding import verify_embedded
from .geometry import invisible_t0, realize_chain
from .metrics import gap_report, loop_gap_report
from .motion import (
    chain_gap,
    chain_gap_report,
    decompose_motion,
    leg_axis_cosines,
    motion_residuals,
    ratio_terms,
    resolve,
)
from .precision import PrecisionError, RealCtx, reduce_theta_multiple, target_angle, theta
from .search import (
    babai_lll_search,
    continued_fraction_convergents,
    convergent_lengths,
    fixup_negative_x,
    lattice_table,
)
from .strings import (
    NAMED_CHAINS,
    _shown,
    check_spelled_length,
    format_string,
    parse_string,
    preset_540_runs,
    quadrahelix_runs,
    spell,
)


def _write_atomic(path: str, text: str) -> None:
    """Write by a temp file beside path and a rename; errors name path, not the temp file."""
    tmp = None
    try:
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _nstr(x, digits: int) -> str:
    with mp.workdps(digits + 5):
        return mp.nstr(mpf(x), digits, strip_zeros=True)


def _chain_parameter(text: str) -> int:
    """The integer --L names, of any length: int() refuses past 4,300 digits."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if len(digits) > 4000 and digits.isascii() and digits.isdigit():
        n = 0
        for i in range(0, len(digits), 4000):
            n = n * 10 ** len(digits[i : i + 4000]) + int(digits[i : i + 4000])
        return -n if body[0] == "-" else n
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 24 else text[:24] + "..."
        raise ValueError(f"--L must be an integer, got {shown!r}") from None


def _chain(args):
    """(kind, param, runs) of the chain named by --string, or --kind and --L.

    A --string chain is runs of one letter each, which only the exact product
    takes, so it is refused past MAX_EXACT_LENGTH here.
    """
    if args.string is not None and args.kind:
        raise ValueError("--string and --kind name two chains; give one")
    if args.L is not None and args.kind in (None, "preset540"):
        raise ValueError("--L needs --kind tetrahelix, quadrahelix or octahelix")
    if args.string:
        s = parse_string(args.string)
        check_exact_length(len(s))
        return "string", None, tuple((a, 1, 1) for a in s)
    if args.kind == "preset540":
        return "preset540", None, preset_540_runs()
    if not args.kind:
        raise ValueError("either --string or --kind is required")
    if args.L is None:
        raise ValueError(f"--kind {args.kind} needs --L")
    L = _chain_parameter(args.L)
    return args.kind, L, NAMED_CHAINS[args.kind](L)


def _letters(kind: str, param: int | None, runs, realized: bool = False):
    """The letters of the chain, for a payload or a realization that reads them.

    The run lengths are checked before a letter is spelled: against
    MAX_SPELLED_LENGTH, and for a realization against the exact-product limit.
    """
    check_spelled_length(kind, param, runs)
    if realized:
        check_exact_length(sum(m for _, _, m in runs))
    return spell(runs)


# --- build --------------------------------------------------------------------


def _obj_mesh(chain) -> str:
    lines = ["# face-to-face tetrahedron chain", f"# tetrahedra: {len(chain.tetrahedra)}"]
    shown = {}  # age -> "v" line: a vertex keeps its age in every tetrahedron that holds it
    offset = 0
    for n, (tet, ages) in enumerate(zip(chain.tetrahedra, chain.ages), start=1):
        lines.append(f"o tet_{n:04d}")
        for v, age in zip(tet.vertices, ages):
            if age not in shown:
                shown[age] = "v " + " ".join("%.17g" % float(x) for x in v)
            lines.append(shown[age])
        for a, b, c3 in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            lines.append(f"f {offset + a} {offset + b} {offset + c3}")
        offset += 4
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    ctx = RealCtx(digits=args.digits)
    kind, param, runs = _chain(args)
    s = _letters(kind, param, runs, realized=True)
    summary = {"kind": kind, "param": param, "length": len(s)}
    if kind == "preset540":
        loop = loop_gap_report(s, ctx)
        summary["gap_report"] = loop.best.to_json_dict()
        summary["loop"] = loop.to_json_dict()
    else:
        summary["gap_report"] = gap_report(s, ctx).to_json_dict()
    summary["string"] = format_string(s)
    chain = realize_chain(s, ctx)
    summary["tetrahedra"] = len(chain.tetrahedra)
    if args.format == "obj":
        out = args.out or f"{kind}_{param or len(s)}.obj"
        _write_atomic(out, _obj_mesh(chain))
        summary["mesh"] = out
        sys.stdout.write(_json_text(summary))
    else:
        _emit(_json_text(summary), args.out)
    return 0


# --- gap ----------------------------------------------------------------------


def cmd_gap(args) -> int:
    ctx = RealCtx(digits=args.digits)
    kind, param, runs = _chain(args)
    # a CSV row prints no letters, so it takes a named chain of any length
    s = _letters(kind, param, runs) if args.loop or args.format == "json" else None
    if args.loop:
        if args.r0 is not None:
            raise ValueError("--loop takes the least lead of every cut; it cannot pin --r0")
        if args.format == "csv":
            raise ValueError("--loop writes JSON only; it has no --format csv")
        loop = loop_gap_report(s, ctx)
        payload = {"string": format_string(s), "length": len(s), "loop": loop.to_json_dict()}
        _emit(_json_text(payload), args.out)
        return 0
    rep = chain_gap_report(runs, ctx, args.r0)
    if args.format == "csv":
        text = rep.CSV_HEADER + "\n" + rep.to_csv_row() + "\n"
    else:
        payload = {"string": format_string(s), "length": len(s), "gap_report": rep.to_json_dict()}
        text = _json_text(payload)
    _emit(text, args.out)
    return 0


# --- tables -------------------------------------------------------------------


def cmd_table1(args) -> int:
    ctx = RealCtx(digits=args.digits)
    lines = ["L,k,delta_bar,gap"]
    for L in convergent_lengths(ctx, args.L_max):
        delta_bar, k = reduce_theta_multiple(L + 1, ctx)
        gap = chain_gap(quadrahelix_runs(L), ctx)
        lines.append(f"{L},{k},{_nstr(delta_bar, 8)},{_nstr(gap, 8)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table2(args) -> int:
    ctx = RealCtx(digits=args.digits)
    lines = ["X,x,y,err,log10_err,kronecker_ok"]
    with ctx.work():
        for X, sol in lattice_table(ctx):
            lines.append(
                f"{_nstr(X, 6)},{sol.x},{sol.y},{_nstr(sol.err, 8)},"
                f"{_nstr(mp.log10(sol.err), 6)},{sol.kronecker_ok}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# --- searches -----------------------------------------------------------------


def cmd_search_cf(args) -> int:
    ctx = RealCtx(digits=args.digits)
    convs = continued_fraction_convergents(ctx, args.count)
    if args.format == "json":
        payload = [
            {"k": conv.k, "q": conv.q, "L": conv.L, "err": float(conv.err)}
            for conv in convs
        ]
        _emit(_json_text(payload), args.out)
    else:
        lines = ["k,q,L,err"]
        for conv in convs:
            lines.append(f"{conv.k},{conv.q},{conv.L},{_nstr(conv.err, 8)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _lll_payload(args, ctx: RealCtx) -> dict:
    with ctx.work():
        X = mpf(args.X)
        gamma = target_angle(args.target)
        sol = babai_lll_search(theta(), 2 * mp.pi, gamma, X, ctx, target=args.target)
        if sol.x < 0:
            sol = fixup_negative_x(sol, ctx)
        return {
            "X": float(X),
            "x": sol.x,
            "y": sol.y,
            "err": float(sol.err),
            "log10_err": float(mp.log10(sol.err)) if sol.err > 0 else None,
            "kronecker_ok": sol.kronecker_ok,
            "target": sol.target,
        }


def cmd_search_lll(args) -> int:
    payload = _lll_payload(args, RealCtx(digits=args.digits))
    if payload["x"] == 0:
        raise ValueError(f"X = {args.X} is too small: the search finds only x = 0")
    # an answer that moves when the working digits double is not certified
    check = _lll_payload(args, RealCtx(digits=2 * args.digits))
    x, y, err = (payload[k] for k in ("x", "y", "err"))
    if (x, y) != (check["x"], check["y"]) or abs(err - check["err"]) > 1e-12 * check["err"]:
        raise PrecisionError(
            f"search-lll gives x, y, err = {_shown(x)}, {_shown(y)}, {err:.6g} at {args.digits} "
            f"digits but {_shown(check['x'])}, {_shown(check['y'])}, {check['err']:.6g} at "
            f"{2 * args.digits}"
        )
    _emit(_json_text(payload), args.out)
    return 0


# --- verification and scans ----------------------------------------------------


def cmd_verify_embed(args) -> int:
    ctx = RealCtx(digits=args.digits)
    s = _letters(*_chain(args), realized=True)
    chain = realize_chain(s, ctx)
    verdict = verify_embedded(chain)
    payload = {"string": format_string(s), "length": len(s)}
    payload.update(verdict.to_json_dict())
    _emit(_json_text(payload), args.out)
    return 0 if verdict.embedded and verdict.adjacency_ok else 4


def cmd_scan_ratio(args) -> int:
    ctx = RealCtx(digits=args.digits)
    lines = ["L,delta_bar,norm_gap,ratio"]
    for L in range(4, args.L_max + 1):
        delta_bar, norm, ratio = ratio_terms(L, ctx)
        lines.append(f"{L},{_nstr(delta_bar, 8)},{_nstr(norm, 8)},{_nstr(ratio, 8)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_motion(args) -> int:
    ctx = RealCtx(digits=args.digits)
    kind, param, runs = _chain(args)
    s = _letters(kind, param, runs)
    if len(s) % 2:
        raise ValueError(f"an odd chain ({len(s)} letters) reverses orientation: it has no screw axis")
    d = ctx.digits

    def printed(K, work):
        # what the payload shows of the motion, and its residuals, at work's
        # precision; a value below 10^-d of the motion's scale (1, or a longer
        # translation) is printed as 0, since its digits are rounding noise
        motion = decompose_motion(K, invisible_t0(work), work)
        tiny = mpf(10) ** -d * max(1, *map(abs, motion.t))

        def digits(v):
            return [_nstr(x if abs(x) >= tiny else 0, d) for x in v]

        shown = {
            "R": [digits(row) for row in motion.R],
            "t": digits(motion.t),
            "w": None if motion.w is None else digits(motion.w),
            "u": None if motion.u is None else digits(motion.u),
            "angle": digits([motion.angle])[0],
        }
        return shown, motion_residuals(motion, work)

    # the decomposition cancels digits even on an exact K: certify what it prints
    shown, res = resolve(runs, ctx, printed, itemgetter(0), settle=True)
    payload = dict(shown, string=format_string(s), residuals={k: float(v) for k, v in res.items()})
    if kind in ("quadrahelix", "octahelix") and len(s) <= 5000:
        chain = realize_chain(s, ctx)
        with ctx.work():
            payload["leg_axis_cosines"] = [_nstr(x, 12) for x in leg_axis_cosines(chain, ctx)]
    _emit(_json_text(payload), args.out)
    return 0


# --- argument plumbing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, chain: bool = False) -> None:
    p.add_argument("--digits", type=int, default=40, help="working precision (>= 30)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if chain:
        p.add_argument(
            "--kind",
            choices=["tetrahelix", "quadrahelix", "octahelix", "preset540"],
            default=None,
        )
        # read by _chain_parameter: argparse's int() stops at 4,300 digits and echoes the text
        p.add_argument("--L", default=None, help="chain parameter (m for tetrahelix)")
        p.add_argument("--string", default=None, help="explicit digit string, e.g. 1234")


class _Parser(argparse.ArgumentParser):
    """Usage errors as one stderr line and exit 2, in every subcommand."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tetrachain",
        description="Face-to-face tetrahedron chains: build, measure, search, verify.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="realize a chain, write a mesh and a JSON summary")
    _add_common(p, chain=True)
    p.add_argument("--format", choices=["obj", "json"], default="obj")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("gap", help="closure metrics of a chain")
    _add_common(p, chain=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--r0", type=int, default=None, help="pin the free leading face")
    p.add_argument("--loop", action="store_true", help="scan all cyclic cut points")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("table1", help="closure survey over convergent denominators")
    _add_common(p)
    p.add_argument("--L-max", dest="L_max", type=int, default=6163435)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="lattice-reduction solutions for X = 10^2 .. 10^6.5")
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("search-cf", help="continued-fraction convergents of the turn angle")
    _add_common(p)
    p.add_argument("--count", type=int, default=21)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_search_cf)

    p = sub.add_parser("search-lll", help="one Babai/LLL approximation at scale X")
    _add_common(p)
    p.add_argument("--X", required=True, help="scale parameter, e.g. 1e4")
    p.add_argument(
        "--target", choices=["gamma_plus", "gamma_minus"], default="gamma_plus"
    )
    p.set_defaults(func=cmd_search_lll)

    p = sub.add_parser("verify-embed", help="certify pairwise-disjoint interiors")
    _add_common(p, chain=True)
    p.set_defaults(func=cmd_verify_embed)

    p = sub.add_parser("scan-ratio", help="norm-gap / (L delta^2) ratio sweep")
    _add_common(p)
    p.add_argument("--L-max", dest="L_max", type=int, default=200)
    p.set_defaults(func=cmd_scan_ratio)

    p = sub.add_parser("motion", help="rotation/translation/axis of the chain map")
    _add_common(p, chain=True)
    p.set_defaults(func=cmd_motion)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrecisionError as e:
        print(f"precision failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: moment tables, identity reports, flow trajectories.

Three subcommands:

    dlaguerre moments --alpha 2 --mu 2 --zeta 0.5 --t 0.3 --kmax 12
    dlaguerre verify  --alpha 2 --mu 2 --zeta 0.5 --t 0.3 --nmax 3
    dlaguerre evolve  --alpha 2 --mu 2 --zeta 0.5 --n 1 --t0 1e-3 --t1 0.3

Outputs are machine-readable (json or csv), written atomically, and
deterministic: identical configuration produces byte-identical files
(no timestamp is emitted unless --stamp is passed, and then only inside
the metadata block).  Numbers are serialized as decimal strings carrying
floor(bits * log10 2) digits; verify writes json only.  The parser owns
each flag's type and default, the library the validation of the values.
Options may also come from a flat key=value config file (# comments
allowed), each line read as the flag --key=value (a bare key as the
switch --key) placed before the command line's flags: a flag beats the
file, which beats DLL_PREC_BITS, which beats the built-in 256 bits.

Exit codes: 0 success (and, for verify, all identities passed);
2 parameter, usage or file failure (--config, --out); 3 numerical
failure (quadrature/precision/singularity); 4 verify ran but some
identities failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import mpmath as mp

from . import __version__
from .errors import DLaguerreError, SingularityEncountered
from .hankel import table_for
from .moments import WeightParams, build_moment_table, moment_closed_form
from .painleve import (PVParams, StepControl, ab_flow_check, evolve,
                       hamilton_map_residual, pv_residual,
                       to_hamiltonian, to_q)
from .precision import (DEFAULT_BITS, DEFAULT_CTX, PrecisionCtx, nstr_full,
                        to_mpf, workprec)
from .semiclassical import theta_kappa_from_recurrence, verify_identities

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAILED = 4


def _read_config_file(path: str, known) -> list:
    """Flat key=value lines, # starting a comment, as the flags --key=value
    (a bare key as the switch --key); keys must name a known option."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            dest = key.replace("-", "_")
            if dest not in known:
                raise ValueError(f"unknown config key: {dest}")
            out.append(f"--{dest.replace('_', '-')}{eq}{val}")
    return out


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no directory {directory} for --out {path}")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dlag-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(data: str, out_path):
    if out_path:
        _atomic_write(out_path, data)
    else:
        sys.stdout.write(data)
        if not data.endswith("\n"):
            sys.stdout.write("\n")


def _csv(rows) -> str:
    buf = io.StringIO()
    wr = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    wr.writeheader()
    wr.writerows(rows)
    return buf.getvalue()


def _inputs(args):
    """The precision context and the weight, as the library checks them."""
    return (PrecisionCtx(args.prec_bits, args.tol),
            WeightParams(args.alpha, args.mu, args.zeta, args.t))


def _metadata(args, prec: PrecisionCtx) -> dict:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "tool": "dlaguerre",
        "version": __version__,
        "prec_bits": prec.significand_bits,
        "tol": str(prec.tol),
        "digits": prec.decimal_digits,
    }
    if args.stamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def cmd_moments(args) -> int:
    prec, params = _inputs(args)
    with workprec(prec):
        rows = []
        closed = [moment_closed_form(k, params, prec)
                  for k in range(args.kmax + 1)]
        quad = build_moment_table(params, args.kmax, prec, "quadrature")
        for k, (cf, q) in enumerate(zip(closed, quad.values)):
            rel = abs(cf - q) / max(abs(q), mp.mpf(1))
            rows.append({
                "k": k,
                "closed_form": nstr_full(cf, prec),
                "quadrature": nstr_full(q, prec),
                "relative_difference": mp.nstr(rel, 5),
            })
    if args.format == "json":
        doc = {"metadata": _metadata(args, prec),
               "params": _params_dict(params), "moments": rows}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(_csv(rows), args.out)
    return EXIT_OK


def _params_dict(params: WeightParams) -> dict:
    return {"alpha": str(params.alpha), "mu": str(params.mu),
            "zeta": str(params.zeta), "t": str(params.t)}


def cmd_verify(args) -> int:
    prec, params = _inputs(args)
    n_max, threshold = args.nmax, args.threshold
    with workprec(prec):
        moments, table = table_for(params, n_max + 2, prec)
        n_range = list(range(1, n_max + 1))
        rep = verify_identities(
            table, moments, n_range, prec, threshold=threshold,
            include_quadrature_checks=not args.fast)
        t_mid = to_mpf(params.t)
        span = t_mid / 10
        grid = mp.linspace(t_mid - span, t_mid + span, 9)
        flow_rep = ab_flow_check(params, min(2, n_max), grid, prec,
                                 threshold=threshold)
    doc = {
        "metadata": _metadata(args, prec),
        "params": _params_dict(params),
        "identities": rep.to_dict(),
        "flow": flow_rep.to_dict(),
        "all_passed": rep.all_passed and flow_rep.all_passed,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK if doc["all_passed"] else EXIT_VERIFY_FAILED


def cmd_evolve(args) -> int:
    prec, params = _inputs(args)
    n, convention = args.n, args.convention
    ctrl = StepControl(rtol=args.ode_tol, atol=str(to_mpf(args.ode_tol) * 1e-6))
    with workprec(prec):
        try:
            traj = evolve(n, args.t0, args.t1, params, prec, ctrl)
        except SingularityEncountered as exc:
            sys.stderr.write(
                f"singularity encountered; last good t = "
                f"{mp.nstr(exc.t_last, 20) if exc.t_last else '?'}\n")
            return EXIT_NUMERICAL
        t0, t1 = traj.t[0], traj.t[-1]

        rows = []
        stride = max(1, len(traj) // args.max_rows)
        idxs = list(range(0, len(traj), stride))
        if idxs[-1] != len(traj) - 1:
            idxs.append(len(traj) - 1)
        for i in idxs:
            t, th, ka = traj.t[i], traj.theta[i], traj.kappa[i]
            hp = to_hamiltonian(th, ka, t, n, params, convention, prec)
            rows.append({
                "t": nstr_full(t, prec), "theta": nstr_full(th, prec),
                "kappa": nstr_full(ka, prec), "q": nstr_full(hp.q, prec),
                "p": nstr_full(hp.p, prec), "H": nstr_full(hp.H, prec),
            })

        summary = {"steps": traj.steps, "rejected": traj.rejected,
                   "max_error_estimate": traj.max_error_estimate,
                   "convention": convention}
        if t1 > t0:
            pars1 = params.replace_t(t1)
            mom1, tab1 = table_for(pars1, n + 1, prec, cross_check=False)
            ref = theta_kappa_from_recurrence(tab1, n)
            th1 = traj.theta[-1]
            summary["endpoint_vs_hankel_rel"] = mp.nstr(
                abs(th1 - ref.theta) / max(abs(ref.theta), mp.mpf(1e-30)), 5)
            summary["hamilton_flow_residual"] = mp.nstr(
                hamilton_map_residual(ref.theta, ref.kappa, n, t1, params,
                                      convention, prec), 5)
            lo = max(t0, to_mpf("0.1"))
            if t1 > lo * mp.mpf("1.2"):
                grid = mp.linspace(lo, t1, 121)
                qs = [to_q(th, tt, convention, prec)
                      for tt, (th, _) in zip(grid, traj.sample(grid))]
                pv = PVParams.make(n, params.alpha, params.mu, convention,
                                   prec)
                summary["pv_residual"] = float(
                    pv_residual(grid, qs, pv.alphas, prec))

    if args.format == "json":
        doc = {"metadata": _metadata(args, prec),
               "params": _params_dict(params), "n": n,
               "summary": summary, "trajectory": rows}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(_csv(rows) + "# summary: " + json.dumps(summary) + "\n",
              args.out)
    return EXIT_OK


def _at_least_one(flag):
    """An argparse type: an integer >= 1, else a message naming the flag."""
    def parse(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be at least 1, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlaguerre",
        description="Numerical laboratory for the jump-deformed Laguerre "
                    "weight and its Painleve V flow")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, formats=("json", "csv")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--alpha", help="integer exponent on (x - t)")
        p.add_argument("--mu", help="exponent on x (integer for closed form)")
        p.add_argument("--zeta", help="jump size, zeta < 1")
        p.add_argument("--t", help="jump location t >= 0")
        p.add_argument("--prec-bits", dest="prec_bits", type=int,
                       default=os.environ.get("DLL_PREC_BITS", DEFAULT_BITS),
                       help="significand bits (default %(default)s, from "
                            "DLL_PREC_BITS when set)")
        p.add_argument("--tol", default=DEFAULT_CTX.tol,
                       help="relative tolerance (default %(default)s)")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--stamp", action="store_true",
                       help="include a timestamp in the metadata block")
        p.set_defaults(func=func)
        return p

    p_m = command("moments", cmd_moments, "closed-form vs quadrature moments")
    p_m.add_argument("--kmax", type=int, default=8,
                     help="highest moment index (default %(default)s)")

    p_v = command("verify", cmd_verify, "run the identity suite",
                  formats=("json",))
    p_v.add_argument("--nmax", type=_at_least_one("--nmax"), default=3,
                     help="highest polynomial index (default %(default)s)")
    p_v.add_argument("--threshold", type=float, default=1e-15,
                     help="relative residual threshold (default %(default)s)")
    p_v.add_argument("--fast", action="store_true",
                     help="skip the quadrature-based checks")

    p_e = command("evolve", cmd_evolve, "integrate the coupled flow")
    p_e.add_argument("--n", type=int, default=1,
                     help="polynomial index n (default %(default)s)")
    p_e.add_argument("--t0", help="initial t (series initial data)")
    p_e.add_argument("--t1", help="final t")
    p_e.add_argument("--convention", choices=("prop11", "cor12"),
                     default="prop11")
    p_e.add_argument("--ode-tol", dest="ode_tol", default="1e-18",
                     help="integrator relative tolerance (default "
                          "%(default)s)")
    p_e.add_argument("--max-rows", dest="max_rows",
                     type=_at_least_one("--max-rows"), default=200,
                     help="max trajectory rows in the output (default "
                          "%(default)s)")
    p_e.set_defaults(t=0)       # unread: the flow runs from --t0 to --t1
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go ahead of the command line's, after the
            # subcommand: argparse types and checks them, and a flag wins
            known = set(vars(args)) - {"command", "func", "config"}
            argv[1:1] = _read_config_file(args.config, known)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:    # UnsupportedParameters too
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except DLaguerreError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

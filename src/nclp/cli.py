"""Deterministic command-line runner.

Subcommands:
  norm            certify an element file (alpha norm, chosen side)
  diag            certify a diagonal element against the exact closed form
  counterexample  run the full verification pipeline at one (k, p)
  sweep           CSV over a k-grid: formula and numeric bounds per row
  yeadon          isometry / split / contraction reports from a spec file
  selftest        run the acceptance checks

Exit codes: 0 success, 1 verification failure (also an eigensolve that
LAPACK fails to converge), 2 invalid input (also a size whose arrays cannot
be allocated).  Each subcommand takes only the flags it reads; --seed
seeds the random draws of ``diag --random`` and ``yeadon``, the only
commands that make any.  Outputs are byte-stable for a fixed configuration
(reals are printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import counterexample as cx
from . import selfcheck, serialize
from .errors import InvalidInputError
from .schatten import check_exponent, check_size
from .vecnorm import Side, VecElem, alpha_certify, diagonal_closed_form
from .yeadon import (RIGID_FACTOR, build_isometry, jordan_split,
                     rigid_bound_report, rigid_compose, tensor_contraction_report,
                     unit_weights)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when there is none.

    A reader that closed stdout early (``nclp ... | head``) loses the rest
    of the output quietly: stdout is pointed at the null device, so the
    interpreter's last flush does not fail again, and the command still
    returns its own exit code.
    """
    if out_path:
        serialize.write_text(out_path, text)
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_seed(args) -> None:
    if args.seed < 0:
        raise InvalidInputError(f"--seed must be >= 0, got {args.seed}")


def cmd_norm(args) -> int:
    payload = serialize.load_json_file(args.infile)
    y = serialize.vecelem_from_json(payload)
    side = Side.ELL_ROW if args.side == "ell" else Side.R_COL
    cert = alpha_certify(y, args.p, side)
    _emit(serialize.dumps_canonical(serialize.certificate_to_json(cert)),
          args.out)
    return EXIT_OK


def cmd_diag(args) -> int:
    _check_seed(args)
    if args.k < 1:
        raise InvalidInputError(f"--k must be >= 1, got {args.k}")
    check_size(args.k, args.k, args.k)  # before the k coefficients are drawn
    if args.random:
        rng = np.random.default_rng(args.seed)
        lams = rng.standard_normal(args.k) + 1j * rng.standard_normal(args.k)
    else:
        lams = np.ones(args.k)  # closed form k^{1/p}
    cert = alpha_certify(VecElem.diagonal(lams), args.p, Side.ELL_ROW)
    closed = diagonal_closed_form(lams, args.p)
    ok = not selfcheck.diagonal_bracket(cert.upper, cert.lower, closed)[2]
    doc = {"k": args.k, "p": float(args.p), "closed_form": closed,
           "upper": cert.upper, "lower": cert.lower, "match": bool(ok)}
    _emit(serialize.dumps_canonical(doc), args.out)
    if not ok:
        print("verification failure: certificate misses the closed form",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_counterexample(args) -> int:
    rep = cx.verify_pipeline(args.k, args.p)
    _emit(serialize.dumps_canonical(serialize.report_to_json(rep)), args.out)
    if not rep.all_checks_ok:
        print("verification failure: " + "; ".join(rep.diagnostics),
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


PIPELINE_P_HELP = ("exponent p >= 2; p < 2 is invalid input (exit 2): there "
                   "the witness norm is k^(1/p - 1/2), not 1")

SWEEP_COLUMNS = ("k", "p", "formula_lb", "numeric_lb", "upper_w",
                 "threshold_pass")


def cmd_sweep(args) -> int:
    if args.kmin < 1 or args.kmax < args.kmin:
        raise InvalidInputError("need 1 <= kmin <= kmax")
    cx.check_pipeline_exponent(args.p)
    rows = []
    for k in range(args.kmin, args.kmax + 1):
        formula = cx.lower_bound_formula(k, args.p)
        numeric = upper_w = None  # above the numeric cap: null, or a blank cell
        passed = formula > RIGID_FACTOR
        if k <= args.numeric_cap:
            rep = cx.verify_pipeline(k, args.p, k_cap=args.numeric_cap)
            numeric, upper_w, passed = rep.numeric_lb, rep.upper_w, rep.threshold_pass
        rows.append((k, args.p, formula, numeric, upper_w, bool(passed)))
    threshold = cx.threshold_k(args.p, RIGID_FACTOR)
    if args.format == "json":
        text = serialize.dumps_canonical({
            "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
            "formula_threshold_k": threshold})
    else:
        text = "\n".join([",".join(SWEEP_COLUMNS)] + [
            ",".join("" if v is None else serialize.dumps_canonical(v) for v in row)
            for row in rows])
    _emit(text, args.out)
    if not args.out or args.format == "csv":
        print(f"# formula threshold k for bound {RIGID_FACTOR:g}: {threshold}",
              file=sys.stderr)
    return EXIT_OK


def cmd_yeadon(args) -> int:
    payload = serialize.load_json_file(args.infile)
    spec, p = serialize.yeadon_from_json(payload)
    _check_seed(args)
    if args.n < 1:
        raise InvalidInputError(f"--n must be >= 1, got {args.n}")
    if args.samples < 1:
        raise InvalidInputError(f"--samples must be >= 1, got {args.samples}")
    iso = build_isometry(spec, p)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    from .schatten import schatten_norm
    for _ in range(100):
        a = rng.standard_normal((spec.n, spec.n)) \
            + 1j * rng.standard_normal((spec.n, spec.n))
        worst = max(worst, abs(schatten_norm(iso(a), p) - schatten_norm(a, p)))
    t1, t2 = jordan_split(spec, p)
    rep1 = tensor_contraction_report(t1, "rep", p, samples=args.samples,
                                     seed=args.seed, n_hilbert=args.n)
    rep2 = tensor_contraction_report(t2, "antirep", p, samples=args.samples,
                                     seed=args.seed, n_hilbert=args.n)
    doc = {"n": spec.n, "p": float(p),
           "isometry_worst_error": worst,
           "rep_part_violations": rep1.violations,
           "antirep_part_violations": rep2.violations}
    # adjoint partner: same block shape with weights renormalized at p'
    ws = unit_weights(spec.weights(), p / (p - 1.0))
    n_rep = len(spec.rep_weights)
    partner = type(spec)(n=spec.n, rep_weights=tuple(ws[:n_rep]),
                         antirep_weights=tuple(ws[n_rep:]))
    try:
        u = rigid_compose(spec, partner, p)
    except InvalidInputError as exc:
        rejected = str(exc)
        doc["rigid_bound_violations"] = None
    else:
        rejected = None
        rb = rigid_bound_report(u, p, samples=args.samples, seed=args.seed,
                                n_hilbert=args.n)
        doc["rigid_bound_violations"] = rb.violations
    _emit(serialize.dumps_canonical(doc), args.out)
    if rejected is not None:
        print("verification failure: the factor-4 rigid bound check did not "
              f"run (rigid_compose rejects the adjoint partner: {rejected})",
              file=sys.stderr)
        return EXIT_VERIFICATION
    ok = (worst <= 1e-10 and rep1.passed and rep2.passed
          and not doc["rigid_bound_violations"])
    if not ok:
        print("verification failure in isometry reports", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_selftest(args) -> int:
    names = args.only.split(",") if args.only else None
    results = selfcheck.run_checks(
        names=names, printer=lambda line: _emit(line, None))
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verification failure in: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclp",
        description="certified factorization norms and the dilation "
                    "counterexample pipeline on matrix p-classes")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(sp, seed=False):
        """``--out``, and ``--seed`` for the commands that draw at random."""
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="seed of the random draws (default 0)")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("norm", help="certify an element file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--side", choices=("ell", "r"), default="ell")
    flags(sp)
    sp.set_defaults(func=cmd_norm)

    sp = sub.add_parser("diag", help="diagonal element vs closed form")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--random", action="store_true",
                    help="seeded random coefficients instead of all ones")
    flags(sp, seed=True)
    sp.set_defaults(func=cmd_diag)

    sp = sub.add_parser("counterexample", help="full pipeline at one (k, p)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True, help=PIPELINE_P_HELP)
    flags(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("sweep", help="CSV over a k-grid")
    sp.add_argument("--p", type=float, required=True, help=PIPELINE_P_HELP)
    sp.add_argument("--kmin", type=int, required=True)
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--numeric-cap", dest="numeric_cap", type=int,
                    default=cx.NUMERIC_K_CAP,
                    help="largest k for which the optimizer columns run")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("yeadon", help="isometry reports from a spec file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--n", type=int, default=3,
                    help="Hilbert dimension of the sampled elements")
    flags(sp, seed=True)
    sp.set_defaults(func=cmd_yeadon)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion names")
    sp.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        p = getattr(args, "p", None)
        if p is not None:
            check_exponent(p)
        # a failed LAPACK solve sets the invalid flag; schatten.eigh turns its
        # NaN into LinAlgError, reported below, so numpy's warning is dropped
        with np.errstate(invalid="ignore"):
            return args.func(args)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except np.linalg.LinAlgError as exc:  # no bracket can be certified
        print(f"verification failure: an eigensolve failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array too large up front: MemoryError, or past the
        # largest index ValueError("array is too big; ..."); no other ValueError
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"invalid input: the sizes are too large: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

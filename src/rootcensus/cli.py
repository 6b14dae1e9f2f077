"""Command line interface: one binary, six subcommands.

  rootcensus roots     --poly "a_0,...,a_n"      certified root disks
  rootcensus classify  --poly "a_0,...,a_n"      modulus profile and friends
  rootcensus census    --n N --height H ...      exhaustive counter tables
  rootcensus generate  --family NAME ...         explicit coefficient families
  rootcensus fit       --points "H:count,..."    log-log growth exponents
  rootcensus verify    --suite quick|full        the packaged acceptance suite

Exit codes: 0 success (verify: its suite_exit), 1 domain errors
(machine-readable {"error", "message"} JSON on standard error), 2 usage
errors (argparse prints the grammar, of the subcommand once one is
named).

Global flags --jobs, --precision-cap, --degree-cap, --seed, --format, --out
can also be set through environment variables with the ROOTCENSUS_ prefix
(ROOTCENSUS_JOBS, ROOTCENSUS_PRECISION_CAP, ROOTCENSUS_DEGREE_CAP,
ROOTCENSUS_SEED, ROOTCENSUS_FORMAT, ROOTCENSUS_OUT); an explicit flag beats
the environment, which beats the built-in default. Every subcommand takes
--format and --out; the others only where they are read: --precision-cap
by roots, --seed by generate, --jobs by census and verify, and
--degree-cap by classify, census and generate (for --validate). Elsewhere
such a flag is a usage error and its environment variable is ignored.

Every JSON output embeds the resolved configuration and the artifact
version, so identical configs produce byte-identical output apart from
the runtime_seconds field. --format csv exists only for census; the
other subcommands refuse it before they compute anything.

Coefficient strings are leading-first everywhere: "1,0,-2" is X^2 - 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import __version__
from .acceptance import exit_code as acceptance_exit_code
from .acceptance import run_acceptance
from .census import (
    _COUNTERS,
    CensusSpec,
    counter_table_csv,
    fit_growth_exponent,
    run_census,
)
from .classify import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_PRIME_BOUND,
    factorize,
    has_multiplicative_relation,
    modulus_profile,
    root_signature,
    sn_certificate,
)
from .errors import BadParameters, RootCensusError
from .generators import (
    TargetSpec,
    near_target_family,
    showcase_families,
    theorem31_family,
    validate_family,
)
from .intpoly import IntPolynomial, coeff_string, parse_coeff_string
from .roots import _DEFAULT_CAP, isolate_roots

__all__ = ["dispatch", "main", "build_parser"]

_ENV_PREFIX = "ROOTCENSUS_"

# a subcommand's result for _emit: resolved configuration, JSON object, text
_Output = Tuple[Dict[str, object], Dict[str, object], str]

# global flag -> (default, help); _add_global_flags registers each one
# only on the subcommands that read it
_GLOBAL_FLAGS = {
    "jobs": (1, "worker processes"),
    "precision_cap": (_DEFAULT_CAP, "certification precision cap in bits"),
    "degree_cap": (DEFAULT_DEGREE_CAP, "factor search degree cap"),
    "seed": (0, "sampling seed"),
    "format": ("json", "output format"),
    "out": ("-", "output path, '-' for stdout"),
}


def _env_name(flag: str) -> str:
    return _ENV_PREFIX + flag.upper()


def _resolve_global(args: argparse.Namespace, flag: str):
    """Flag beats environment beats default."""
    val = getattr(args, flag)
    if val is not None:
        return val
    default = _GLOBAL_FLAGS[flag][0]
    env = os.environ.get(_env_name(flag))
    if env is not None and env != "":
        if isinstance(default, int):
            return _parse_int(env, "environment " + _env_name(flag))
        return env
    return default


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadParameters("%s must be an integer, got %r" % (what, text))


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadParameters("%s must be a rational number, got %r" % (what, text))


def _parse_target(text: str) -> TargetSpec:
    """Semicolon-separated exact points: "re,im;re,im;..."."""
    pts: List[Tuple[Fraction, Fraction]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise BadParameters("target point %r is not 're,im'" % (chunk,))
        pts.append(
            (
                _parse_fraction(parts[0].strip(), "target re"),
                _parse_fraction(parts[1].strip(), "target im"),
            )
        )
    if not pts:
        raise BadParameters("empty --target")
    ts = TargetSpec(tuple(pts))
    ts.validate()
    return ts


def _counter_spellings() -> Dict[str, str]:
    """Upper-cased CLI spelling -> counter name ("STAR" spells "*")."""
    out = {name: name for name in _COUNTERS}
    out.update((alias, name) for name, c in _COUNTERS.items() for alias in c.aliases)
    return out


def _parse_counters(text: str) -> Tuple[str, ...]:
    spellings = _counter_spellings()
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name = spellings.get(tok.upper().replace("STAR", "*"))
        if name is None:
            raise BadParameters("unknown counter %r (choices: %s)" % (tok, ", ".join(spellings)))
        out.append(name)
    if not out:
        raise BadParameters("empty --counters")
    return tuple(dict.fromkeys(out))


def _parse_points(text: str) -> List[Tuple[float, float]]:
    pts = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            raise BadParameters("fit point %r is not 'H:count'" % (tok,))
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise BadParameters("fit point %r is not numeric" % (tok,))
    return pts


def _emit(cfg: Dict[str, object], obj: Dict[str, object], text: str) -> None:
    """Write one subcommand's output and a final newline to stdout or
    --out: for json the object with the resolved configuration and the
    version added, otherwise the text payload."""
    if cfg["format"] == "json":
        obj = dict(obj, config=cfg, version=__version__)
        text = json.dumps(obj, sort_keys=True, indent=2, default=str)
    if cfg["out"] == "-":
        sys.stdout.write(text + "\n")
    else:
        try:
            with open(str(cfg["out"]), "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise BadParameters("cannot write --out: %s" % e)


def _config(args: argparse.Namespace, **extra) -> Dict[str, object]:
    """The subcommand, its resolved global flags and `extra`."""
    cfg: Dict[str, object] = {"subcommand": args.subcommand}
    for flag in _GLOBAL_FLAGS:
        if hasattr(args, flag):
            cfg[flag] = _resolve_global(args, flag)
    if cfg["format"] not in ("json", "csv", "text"):
        raise BadParameters("unknown format %r (choices: json, csv, text)" % (cfg["format"],))
    if cfg["format"] == "csv" and args.subcommand != "census":
        raise BadParameters("%s output has no csv form; use json or text" % (args.subcommand,))
    for k, v in extra.items():
        cfg[k] = v
    return cfg


def _need_poly(args: argparse.Namespace) -> IntPolynomial:
    if not args.poly:
        raise BadParameters("--poly is required")
    return parse_coeff_string(args.poly)


# -- roots ---------------------------------------------------------------


def _number(x: Fraction):
    """A disk value for output: a float, or beyond the double range (above
    it, or nonzero below it) a Decimal of 17 significant digits, which
    JSON output writes as a string."""
    try:
        v = float(x)
        if v or not x:
            return v
    except OverflowError:
        pass
    return decimal.Context(prec=17).divide(x.numerator, x.denominator)


def _cmd_roots(args: argparse.Namespace) -> _Output:
    f = _need_poly(args)
    cfg = _config(
        args,
        poly=args.poly,
        precision=args.precision,
        radius=args.radius,
    )
    radius = _parse_fraction(args.radius, "--radius") if args.radius else None
    rs = isolate_roots(
        f,
        precision_bits=args.precision,
        precision_cap=int(cfg["precision_cap"]),
        radius_target=radius,
    )
    disks = [
        {
            "center_re": _number(d.center_re),
            "center_im": _number(d.center_im),
            "radius": _number(d.radius),
            "multiplicity": d.multiplicity,
            "is_real": d.is_real,
        }
        for d in rs.disks
    ]
    lines = ["status %s at %d bits" % (rs.status, rs.precision_bits)]
    for d in disks:
        lines.append(
            "  {:.17g} {:+.17g}i  r={:.3g}  mult={}{}".format(
                d["center_re"],
                d["center_im"],
                d["radius"],
                d["multiplicity"],
                " real" if d["is_real"] else "",
            )
        )
    obj = {"roots": disks, "status": rs.status, "precision_bits": rs.precision_bits}
    return cfg, obj, "\n".join(lines)


# -- classify ------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> _Output:
    f = _need_poly(args)
    wants = {
        "profile": args.profile,
        "signature": args.signature,
        "factor": args.factor,
        "sn": args.sn,
        "relation": args.relation,
    }
    if args.all or not any(wants.values()):
        wants = {k: True for k in wants}
    cfg = _config(
        args,
        poly=args.poly,
        requested=sorted(k for k, v in wants.items() if v),
        prime_bound=args.prime_bound,
    )
    out: Dict[str, object] = {}
    if wants["profile"]:
        p = modulus_profile(f)
        out.update(
            {
                "k_max": p.k_max,
                "k_min": p.k_min,
                "dominant": p.dominant,
                "profile_decision": p.decision,
            }
        )
    if wants["signature"]:
        sig = root_signature(f)
        out.update({"r": sig.r, "s": sig.s})
    fr = None
    if wants["factor"] or wants["sn"]:
        fr = factorize(f, degree_cap=int(cfg["degree_cap"]))
    if wants["factor"]:
        out["content"] = fr.content
        out["factors"] = [
            {"coeffs": coeff_string(p), "multiplicity": m} for p, m in fr.factors
        ]
        out["irreducible"] = fr.irreducible
    if wants["sn"]:
        if fr.irreducible:
            cert = sn_certificate(f, prime_bound=args.prime_bound, assume_irreducible=True)
            out["sn_verdict"] = cert.verdict
            out["sn_witnesses"] = [[p, list(pat)] for p, pat in cert.witnesses]
        else:
            out["sn_verdict"] = "UNDECIDED"
            out["sn_witnesses"] = []
    if wants["relation"]:
        if f.degree >= 4:
            out["multiplicative_relation"] = has_multiplicative_relation(f)
        else:
            out["multiplicative_relation"] = None
    return cfg, out, "\n".join("%s: %s" % (k, out[k]) for k in sorted(out))


# -- census ----------------------------------------------------------------


def _cmd_census(args: argparse.Namespace) -> _Output:
    if args.n is None or args.height is None:
        raise BadParameters("census needs --n and --height")
    counters = _parse_counters(args.counters)
    cfg = _config(args)
    spec = CensusSpec(
        n=args.n,
        height=args.height,
        monic=args.monic,
        counters=counters,
        jobs=int(cfg["jobs"]),
        checkpoint=args.checkpoint,
        prime_bound=args.prime_bound,
        degree_cap=int(cfg["degree_cap"]),
        permissive=args.permissive,
        symmetry=args.symmetry,
        engine=args.engine,
    )
    cfg.update(dataclasses.asdict(spec))
    t0 = time.perf_counter()
    table = run_census(spec)
    rt = round(time.perf_counter() - t0, 3)
    if cfg["format"] == "csv":
        lines = counter_table_csv(table)
    else:
        lines = ["totals %d  ambiguous %d  (%.3fs)" % (table.totals, table.ambiguous, rt)]
        for fam in sorted(table.counts):
            cells = table.family(fam)
            body = "  ".join("%s=%d" % (k, cells[k]) for k in sorted(cells))
            lines.append("%-8s %s" % (fam, body))
    return cfg, table.to_json(runtime_seconds=rt), "\n".join(lines)


# -- generate ----------------------------------------------------------------


def _predicate(expr: str, degree_cap: int) -> Callable[[IntPolynomial], bool]:
    """Tiny membership DSL for --validate:

    k_max=K, k_min=K, dominant, b*=M1,M2, r=R, irreducible
    """
    expr = expr.strip()
    if expr == "dominant":
        return lambda f: modulus_profile(f).dominant
    if expr == "irreducible":
        return lambda f: factorize(f, degree_cap=degree_cap).irreducible
    if expr.startswith("k_max="):
        k = _parse_int(expr[6:], "k_max")
        return lambda f: modulus_profile(f).k_max == k
    if expr.startswith("k_min="):
        k = _parse_int(expr[6:], "k_min")
        return lambda f: modulus_profile(f).k_min == k
    if expr.startswith("b*="):
        parts = expr[3:].split(",")
        if len(parts) != 2:
            raise BadParameters("b* predicate needs 'b*=M1,M2'")
        m1, m2 = (_parse_int(m, "b*") for m in parts)
        def _b(f: IntPolynomial) -> bool:
            p = modulus_profile(f)
            return (p.k_max, p.k_min) == (m1, m2)
        return _b
    if expr.startswith("r="):
        r = _parse_int(expr[2:], "r")
        return lambda f: root_signature(f).r == r
    raise BadParameters(
        "unknown predicate %r (grammar: k_max=K, k_min=K, dominant, b*=M1,M2, r=R, irreducible)"
        % (expr,)
    )


def _cmd_generate(args: argparse.Namespace) -> _Output:
    if args.height is None:
        raise BadParameters("generate needs --height")
    cfg = _config(
        args,
        family=args.family,
        n=args.n,
        height=args.height,
        target=args.target,
        delta=args.delta,
        params=args.params,
        count=args.count,
        enumerate=args.enumerate,
        validate=args.validate,
    )
    count = args.count
    if count < 0:
        raise BadParameters("--count must be >= 0, got %d" % count)
    if args.family == "near-target":
        if not args.target:
            raise BadParameters("near-target needs --target \"re,im;re,im;...\"")
        target = _parse_target(args.target)
        if args.n is not None and args.n != target.n:
            raise BadParameters(
                "--n %d contradicts the %d target points" % (args.n, target.n)
            )
        stream = near_target_family(
            target,
            args.height,
            budget=count,
            seed=int(cfg["seed"]),
            enumerate_all=args.enumerate,
        )
    elif args.family == "theorem31":
        if args.n is None:
            raise BadParameters("theorem31 needs --n")
        delta = _parse_fraction(args.delta, "--delta") if args.delta else Fraction(1, 2)
        stream = itertools.islice(theorem31_family(args.n, args.height, delta), count)
    else:  # a3star3 or x3plus8
        name = {"a3star3": "A3_STAR_3", "x3plus8": "X3PLUS8"}[args.family]
        n = args.n if args.n is not None else (3 if args.family == "a3star3" else 4)
        params = None
        if args.params:
            toks = [t for t in args.params.split(",") if t.strip()]
            if len(toks) != 4:
                raise BadParameters("--params needs four rationals 'd1,d2,l1,l2'")
            params = tuple(_parse_fraction(t.strip(), "--params entry") for t in toks)
        stream = itertools.islice(showcase_families(name, n, args.height, params=params), count)

    members = [coeff_string(f) for f in stream]
    report = None
    if args.validate:
        pred = _predicate(args.validate, int(cfg["degree_cap"]))
        report = validate_family(
            (parse_coeff_string(s) for s in members), pred, sample=max(1, len(members))
        )
    text = "\n".join(members)
    obj: Dict[str, object] = {"members": members, "count": len(members)}
    if report is not None:
        text += "\n" + json.dumps(report, sort_keys=True, default=str)
        obj["validation"] = report
    return cfg, obj, text


# -- fit ---------------------------------------------------------------------


def _cmd_fit(args: argparse.Namespace) -> _Output:
    pts: List[Tuple[float, float]] = []
    if args.points:
        pts.extend(_parse_points(args.points))
    if args.tables:
        if not args.family or args.label is None:
            raise BadParameters("--tables needs --family and --label")
        for path in args.tables:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                raise BadParameters("cannot read census table %r: %s" % (path, e))
            try:
                h = doc["spec"]["height"]
                c = doc["counters"][args.family][args.label]
            except (KeyError, TypeError):
                raise BadParameters(
                    "table %r lacks counters[%r][%r]" % (path, args.family, args.label)
                )
            pts.append((float(h), float(c)))
    cfg = _config(
        args,
        points=sorted(pts),
        family=args.family,
        label=args.label,
    )
    fit = fit_growth_exponent(pts)
    obj = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "points": [[h, c] for h, c in sorted(pts)],
    }
    text = "slope %.6f  intercept %.6f  residual %.3g  (%d points)" % (
        fit.slope, fit.intercept, fit.residual, len(pts))
    return cfg, obj, text


# -- verify --------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> _Output:
    criteria = None
    if args.criteria:
        criteria = [_parse_int(t, "--criteria entry") for t in args.criteria.split(",") if t.strip()]
    cfg = _config(args, suite=args.suite, criteria=criteria)
    results = run_acceptance(args.suite, criteria=criteria, jobs=int(cfg["jobs"]))
    code = acceptance_exit_code(results)
    lines = []
    for r in results:
        lines.append(
            "%-6s %2d %-44s %7.1fs" % (r.status, r.cid, r.name, r.runtime_seconds)
        )
        if r.status != "PASS":
            lines.append("       expected: %s" % r.expected)
            lines.append("       measured: %s" % json.dumps(r.measured, sort_keys=True, default=str))
        if r.notes:
            lines.append("       note: %s" % r.notes)
    lines.append(
        "result: %s (%d criteria)" % ("FAIL" if code else "PASS", len(results))
    )
    obj = {"results": [r.to_json() for r in results], "suite_exit": code}
    return cfg, obj, "\n".join(lines)


# -- parser / dispatch ----------------------------------------------------------


def _add_global_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register the given global flags, then --format and --out."""
    for flag in flags + ("format", "out"):
        default, text = _GLOBAL_FLAGS[flag]
        p.add_argument(
            "--" + flag.replace("_", "-"),
            dest=flag,
            type=type(default),
            default=None,
            choices=("json", "csv", "text") if flag == "format" else None,
            help="%s (env %s)" % (text, _env_name(flag)),
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rootcensus",
        description="Classify, census and generate integer polynomials by root geometry.",
    )
    ap.add_argument("--version", action="version", version="rootcensus " + __version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("roots", help="certified root disks for one polynomial")
    p.add_argument("--poly", required=True, help='coefficients "a_0,...,a_n", leading first')
    p.add_argument("--precision", type=int, default=128, help="starting precision in bits")
    p.add_argument("--radius", default=None, help="refine disks to this rational radius")
    _add_global_flags(p, "precision_cap")
    p.set_defaults(run=_cmd_roots, parser=p)

    p = sub.add_parser("classify", help="modulus profile, signature, factorization, S_n, relations")
    p.add_argument("--poly", required=True, help='coefficients "a_0,...,a_n", leading first')
    p.add_argument("--all", action="store_true", help="report every classifier (default)")
    p.add_argument("--profile", action="store_true", help="k_max / k_min / dominant")
    p.add_argument("--signature", action="store_true", help="real/complex signature (r, s)")
    p.add_argument("--factor", action="store_true", help="factorization over the integers")
    p.add_argument("--sn", action="store_true", help="one-sided S_n certificate")
    p.add_argument("--relation", action="store_true", help="multiplicative relation detector")
    p.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND, dest="prime_bound")
    _add_global_flags(p, "degree_cap")
    p.set_defaults(run=_cmd_classify, parser=p)

    p = sub.add_parser("census", help="exhaustive counter tables over a coefficient box")
    p.add_argument("--n", type=int, default=None, help="degree")
    p.add_argument("--height", type=int, default=None, help="coefficient height H")
    p.add_argument("--monic", action="store_true", help="monic box instead of the full box")
    p.add_argument(
        "--counters",
        default="A*",
        help="comma list from %s (%s)" % (
            ",".join(_COUNTERS),
            "; ".join("%s is short for %s" % (a, name)
                      for name, c in _COUNTERS.items() for a in c.aliases),
        ),
    )
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resumable runs")
    p.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND, dest="prime_bound")
    p.add_argument("--permissive", action="store_true", help="count precision-cap hits as ambiguous")
    p.add_argument("--symmetry", action="store_true", help="use the sign symmetry reduction")
    p.add_argument("--engine", default="auto", choices=("auto", "scalar", "vector"))
    _add_global_flags(p, "jobs", "degree_cap")
    p.set_defaults(run=_cmd_census, parser=p)

    p = sub.add_parser("generate", help="stream explicit positive-density families")
    p.add_argument(
        "--family",
        required=True,
        choices=("near-target", "theorem31", "a3star3", "x3plus8"),
    )
    p.add_argument("--target", default=None, help='exact points "re,im;re,im;..."')
    p.add_argument("--n", type=int, default=None, help="degree")
    p.add_argument("--height", type=int, default=None, help="coefficient height H")
    p.add_argument("--delta", default=None, help="theorem31 delta parameter (rational)")
    p.add_argument("--params", default=None, help='x3plus8 window "d1,d2,l1,l2" (rationals)')
    p.add_argument("--count", type=int, default=1000, help="member budget")
    p.add_argument("--enumerate", action="store_true", help="lexicographic instead of sampled")
    p.add_argument("--validate", default=None, help="membership predicate, e.g. 'b*=2,2'")
    _add_global_flags(p, "degree_cap", "seed")
    p.set_defaults(run=_cmd_generate, parser=p)

    p = sub.add_parser("fit", help="log-log growth exponent from points or census tables")
    p.add_argument("--points", default=None, help='"H:count,H:count,..."')
    p.add_argument("--tables", nargs="*", default=None, help="census JSON files")
    p.add_argument("--family", default=None, help="counter family to read from --tables")
    p.add_argument("--label", default=None, help="counter cell label to read from --tables")
    _add_global_flags(p)
    p.set_defaults(run=_cmd_fit, parser=p)

    p = sub.add_parser("verify", help="run the packaged acceptance suite")
    p.add_argument("--suite", default="quick", choices=("quick", "full"))
    p.add_argument("--criteria", default=None, help="comma list of criterion ids (default all)")
    _add_global_flags(p, "jobs")
    p.set_defaults(run=_cmd_verify, parser=p)

    return ap


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand; never raises for domain errors."""
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(list(argv))
        if unread:
            # the subcommand's parser reports it, with the flags it takes
            args.parser.error("unrecognized arguments: %s" % " ".join(unread))
    except SystemExit as e:
        code = e.code
        return int(code) if isinstance(code, int) else 0 if code is None else 2
    try:
        cfg, obj, text = args.run(args)
        _emit(cfg, obj, text)
        return int(obj.get("suite_exit", 0))
    except RootCensusError as e:
        sys.stderr.write(
            json.dumps(
                {"error": type(e).__name__, "message": str(e)}, sort_keys=True
            )
            + "\n"
        )
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

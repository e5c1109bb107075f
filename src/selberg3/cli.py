"""Command-line driver: configuration, representation files, and reports.

Subcommands: enumerate | classify | lsum | identity | zeta | trace |
eisenstein-check.  Exit codes: 0 success, 1 usage error, 2 data or
completeness failure, 3 numerical failure.  Output formats: text (default),
csv, json; CSV and JSON carry identical formatted payloads, so either can
serve as a golden file.  The trace-formula, transform and zeta modules are
imported by the subcommands that use them, so a command pays only for its
own imports.  The package runs on numpy alone: every quadrature, digamma
and log-gamma value comes from selberg3.quadrature.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from cmath import exp as cexp
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .arithmetic_group import (GROUPS, CompletenessError, EnumerationCapError,
                               build_group_data, classify,
                               cuspidal_elliptic_classes, enumerate_elements,
                               get_group, stabilizer_data)
from .eisenstein import eigen_check
from .geometry import Point3
from .lattice_lfn import (HEX_LATTICE, SQUARE_LATTICE, Lattice,
                          LatticeCharacter, L_value_direct, L_value_kronecker,
                          kappa_lattice)
from .representation import (CyclotomicValue, find_character, singular_spaces,
                             trivial_rep)
from .rings import EISENSTEIN

__all__ = ["RunConfig", "UsageError", "main"]

FORMATS = ("text", "csv", "json")
LOG_DERIV_TOL = 1e-6
LSUM_MAX_DISCREPANCY = 5e-3
# documented meromorphy orders for the trivial character, reported next to
# the computed lcm and never adopted in its place
DOCUMENTED_ORDERS = {"picard": 1, "eisenstein": 6}


class UsageError(Exception):
    """Bad flags, config keys, or argument values; exit code 1."""


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    group: str = "picard"
    rep: str = "trivial"
    height: int = 6
    norm_bound: float = 14.0
    A: float = 5.0
    out: Optional[str] = None
    format: str = "text"

    def validate(self) -> "RunConfig":
        if self.group not in GROUPS:
            raise UsageError(f"unsupported group {self.group!r}; "
                             f"choose from {sorted(GROUPS)}")
        if self.height < 1:
            raise UsageError("height must be >= 1")
        for name in ("norm_bound", "A"):
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be a finite positive number")
        if self.format not in FORMATS:
            raise UsageError(f"unknown format {self.format!r}; "
                             f"choose from {FORMATS}")
        return self


_COERCE = {"height": int, "norm_bound": float, "A": float}


def _key_value_lines(path: str, kind: str):
    """(lineno, key, value) per "key = value" line; # starts a comment line."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise UsageError(f"cannot read {kind} file: {e}")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_config_file(path: str) -> dict:
    values = {}
    for lineno, key, value in _key_value_lines(path, "config"):
        key = key.replace("-", "_")
        if key not in RunConfig.__dataclass_fields__:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Precedence: command-line flags > config file > defaults."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    for key in RunConfig.__dataclass_fields__:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key, cast in _COERCE.items():
        if key in merged and isinstance(merged[key], str):
            try:
                merged[key] = cast(merged[key])
            except ValueError:
                raise UsageError(f"config value for {key} is not numeric: "
                                 f"{merged[key]!r}")
    return RunConfig(**merged).validate()


def load_representation(config: RunConfig):
    """--rep is "trivial" or the path of a "key = value" character file.

    Recognized keys: modulus ("a b" ring coordinates), and on_R, on_S,
    on_E values on the three cusp-stabilizer generators.  Values are
    complex literals or fractions p/q meaning exp(2 pi i p/q).
    """
    group = get_group(config.group)
    if config.rep == "trivial":
        return trivial_rep(group.ring)
    spec = parse_character_file(config.rep)
    try:
        return find_character(group, spec["modulus"], spec["on_R"],
                              spec["on_S"], spec["on_E"])
    except ValueError as e:
        raise UsageError(f"character file {config.rep}: {e}")


def _phase(token: str) -> complex:
    if "/" in token:
        try:
            return cexp(2j * math.pi * Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad phase fraction {token!r}")
    try:
        return complex(token)
    except ValueError:
        raise UsageError(f"bad generator value {token!r}")


def parse_character_file(path: str) -> dict:
    spec = {}
    for lineno, key, value in _key_value_lines(path, "character"):
        if key == "modulus":
            parts = value.split()
            if len(parts) != 2 or not all(_is_int(p) for p in parts):
                raise UsageError(f"{path}:{lineno}: modulus needs two "
                                 "integer coordinates")
            spec["modulus"] = (int(parts[0]), int(parts[1]))
        elif key in ("on_R", "on_S", "on_E"):
            spec[key] = _phase(value)
        else:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
    missing = {"modulus", "on_R", "on_S", "on_E"} - set(spec)
    if missing:
        raise UsageError(f"character file {path} is missing "
                         f"{sorted(missing)}")
    return spec


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# report construction and rendering

@dataclass
class Report:
    command: str
    rows: list
    sections: dict


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%.15g" % (v + 0.0)
    return str(v)


def row(**cells) -> dict:
    """Format a row; complex values split into _re/_im columns."""
    out = {}
    for key, v in cells.items():
        if isinstance(v, complex):
            out[key + "_re"] = fmt_value(v.real)
            out[key + "_im"] = fmt_value(v.imag)
        else:
            out[key] = fmt_value(v)
    return out


def _render_csv_rows(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        writer.writerow(list(rows[0].keys()))
        for r in rows:
            writer.writerow(list(r.values()))
    return buf.getvalue()


def _render_text_rows(rows: Sequence[dict]) -> str:
    if not rows:
        return "(empty)\n"
    keys = list(rows[0].keys())
    widths = {k: max(len(k), max(len(r[k]) for r in rows)) for k in keys}
    lines = ["  ".join(k.ljust(widths[k]) for k in keys).rstrip()]
    for r in rows:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in keys).rstrip())
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {"command": report.command, "rows": report.rows}
        payload.update(report.sections)
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        parts = [_render_csv_rows(report.rows)]
        for name, rows in report.sections.items():
            parts.append(f"# {name}\n" + _render_csv_rows(rows))
        return "\n".join(parts)
    parts = [f"== {report.command} ==\n" + _render_text_rows(report.rows)]
    for name, rows in report.sections.items():
        parts.append(f"== {name} ==\n" + _render_text_rows(rows))
    return "\n".join(parts)


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(report: Report, config: RunConfig) -> None:
    text = render(report, config.format)
    if config.out:
        write_atomic(config.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_enumerate(config: RunConfig, args) -> int:
    group = get_group(config.group)
    elems = enumerate_elements(group, config.height)
    counts = Counter(classify(g).kind for g in elems)
    rows = [row(kind=k, count=counts[k]) for k in sorted(counts)]
    rows.append(row(kind="total", count=len(elems)))
    emit(Report("enumerate", rows, {}), config)
    return 0


def cmd_classify(config: RunConfig, args) -> int:
    group = get_group(config.group)
    gdata = build_group_data(group, config.height, config.norm_bound)
    summary = [
        row(kind="cuspidal_elliptic", count=len(gdata.cuspidal_elliptic)),
        row(kind="loxodromic", count=len(gdata.loxodromic)),
        row(kind="non_cuspidal_elliptic",
            count=len(gdata.non_cuspidal_elliptic)),
    ]
    ce_rows = [row(order=c.order, centralizer=c.centralizer_order,
                   eps_norm=c.one_minus_eps_sq_norm, c_norm=c.c_norm)
               for c in gdata.cuspidal_elliptic]
    lox_rows = [row(N0=c.N0, m=c.m, ambiguous=c.ambiguous)
                for c in gdata.loxodromic]
    nce_rows = [row(order=c.order_primitive, sin_sq=c.sin_sq,
                    N0=c.N0 if c.N0 is not None else None)
                for c in gdata.non_cuspidal_elliptic]
    emit(Report("classify", summary,
                {"cuspidal_elliptic": ce_rows, "loxodromic": lox_rows,
                 "non_cuspidal_elliptic": nce_rows}), config)
    return 0


_LATTICES = {
    "i": SQUARE_LATTICE,
    "omega": HEX_LATTICE,
    "1+omega": Lattice(EISENSTEIN.to_complex((1, 1))),
}


def cmd_lsum(config: RunConfig, args) -> int:
    tau_choice = args.tau or ("i" if config.group == "picard" else "1+omega")
    lat = _LATTICES[tau_choice]
    psi = LatticeCharacter(args.u, args.v)
    if psi.is_trivial:
        fit = kappa_lattice(lat)
        rows = [row(u=args.u, v=args.v, tau=tau_choice, status="divergent",
                    note="trivial character: partial sums grow like "
                         "slope*(log x + kappa)",
                    kappa=fit.kappa, slope=fit.slope,
                    error_band=fit.error_band)]
        emit(Report("lsum", rows, {}), config)
        return 0
    est = L_value_direct(lat, psi, x_max=args.x_max)
    closed = L_value_kronecker(lat, psi)
    discrepancy = abs(est.value - closed)
    ok = discrepancy <= args.max_discrepancy
    rows = [row(u=args.u, v=args.v, tau=tau_choice, x_max=args.x_max,
                direct=est.value, direct_error=est.error, closed=closed,
                discrepancy=discrepancy, within_bound=ok)]
    emit(Report("lsum", rows, {}), config)
    return 0 if ok else 3


def _residual_cells(value: CyclotomicValue) -> dict:
    if value.b == 0:
        return {"residual": value.a}
    return {"residual": f"{value.a} + {value.b}*omega"}


def cmd_identity(config: RunConfig, args) -> int:
    from .trace_formula import cuspidal_identity_check
    group = get_group(config.group)
    chi = load_representation(config)
    classes = cuspidal_elliptic_classes(
        group, enumerate_elements(group, config.height))
    sing = singular_spaces(chi, stabilizer_data(group))
    residual = cuspidal_identity_check(
        classes, chi, sing.k_infinity, sing.l_infinity, group.index)
    rows = [row(k_infinity=sing.k_infinity, l_infinity=sing.l_infinity,
                index=group.index, classes=len(classes),
                exact_zero=residual.is_zero, **_residual_cells(residual))]
    emit(Report("identity", rows, {}), config)
    return 0 if residual.is_zero else 3


def _divisor_rows(records) -> list:
    return [row(location_re=r.location.real + 0.0,
                location_im=r.location.imag + 0.0,
                residue_num=r.residue.numerator,
                residue_den=r.residue.denominator,
                source=r.source) for r in records]


def cmd_zeta(config: RunConfig, args) -> int:
    from .trace_formula import SpectralSideInputs
    from .zeta import (build_zeta_class_data, central_difference_check,
                       meromorphy_report, topological_divisor, zeta_truncated)
    s_list = args.s or [2.0, 2.5]
    for s in s_list:
        if not s > 1.0:
            raise UsageError(f"zeta evaluation point s = {s} must exceed 1")
    if args.documented_order is not None and args.documented_order < 1:
        raise UsageError("--documented-order must be at least 1")
    group = get_group(config.group)
    chi = load_representation(config)
    sing = singular_spaces(chi, stabilizer_data(group))
    trS0 = args.trs0 if args.trs0 is not None else float(sing.k_infinity % 2)
    try:
        SpectralSideInputs(trS0=trS0).validate_parity(sing.k_infinity)
    except ValueError as e:
        raise UsageError(f"--trs0: {e}")
    gdata = build_group_data(group, config.height, config.norm_bound)
    data = build_zeta_class_data(gdata.loxodromic, chi)
    all_ok = True
    rows = []
    for s in s_list:
        z = zeta_truncated(s, data)
        check = central_difference_check(s, data)
        ok = check.relative_error <= LOG_DERIV_TOL
        all_ok = all_ok and ok
        rows.append(row(s=float(s), zeta=z, log_derivative=check.series,
                        central_diff_rel_err=check.relative_error,
                        check_ok=ok))
    records = topological_divisor(group.index, sing.k_infinity,
                                  sing.l_infinity, trS0)
    documented = args.documented_order
    if documented is None and config.rep == "trivial":
        documented = DOCUMENTED_ORDERS[config.group]
    mrep = meromorphy_report(records, documented)
    mero_rows = [row(computed=mrep.computed, documented=mrep.documented,
                     matches=mrep.matches, note=mrep.note)]
    report = Report("zeta", rows, {"meromorphy": mero_rows,
                                   "divisor": _divisor_rows(records)})
    emit(report, config)
    if config.out:
        write_atomic(config.out + ".divisor.csv",
                     _render_csv_rows(report.sections["divisor"]))
    return 0 if all_ok else 3


def cmd_trace(config: RunConfig, args) -> int:
    from .trace_formula import geometric_side
    from .transform import resolvent_pair
    if not (1.0 < args.s < args.B):
        raise UsageError("need 1 < s < B for the resolvent pair")
    group = get_group(config.group)
    chi = load_representation(config)
    gdata = build_group_data(group, config.height, config.norm_bound)
    triple = resolvent_pair(args.s, args.B)
    rep = geometric_side(triple, gdata, chi, A=config.A,
                         norm_bound=config.norm_bound)
    cancel = abs(rep.logA_coefficient - rep.expected_logA_coefficient)
    rows = [
        row(term="identity", value=complex(rep.identity_term)),
        row(term="non_cuspidal_elliptic", value=complex(rep.nce_term)),
        row(term="loxodromic", value=complex(rep.loxodromic_term)),
        row(term="loxodromic_tail", value=complex(rep.loxodromic_tail)),
        row(term="cuspidal_elliptic", value=complex(rep.cuspidal_elliptic_term)),
        row(term="parabolic", value=complex(rep.parabolic_term)),
        row(term="total", value=rep.total),
        row(term="finite_part", value=rep.finite_part),
    ]
    loga_rows = [row(A=rep.A, coefficient=rep.logA_coefficient,
                     expected=rep.expected_logA_coefficient,
                     cancellation_error=cancel,
                     cancel_ok=cancel <= 1e-9)]
    err_rows = [row(source=k, estimate=float(v))
                for k, v in sorted(rep.errors.items())]
    emit(Report("trace", rows, {"logA_check": loga_rows,
                                "error_estimates": err_rows}), config)
    return 0


def cmd_eisenstein_check(config: RunConfig, args) -> int:
    if not args.s > 1.0:
        raise UsageError("eigenvalue check needs Re(s) > 1")
    group = get_group(config.group)
    chi = load_representation(config)
    sing = singular_spaces(chi, stabilizer_data(group))
    if sing.k_infinity == 0:
        raise CompletenessError(
            "character has no singular vector at the cusp; the Eisenstein "
            "series vanishes identically")
    v = sing.V_infinity[:, 0]
    residual = eigen_check(args.point, args.s, chi, v, group, config.height,
                           fd_step=args.fd_step)
    ok = residual <= args.residual_tol
    rows = [row(s=args.s, point_z=args.point.z, point_r=args.point.r,
                height=config.height, fd_step=args.fd_step,
                residual=residual, residual_tol=args.residual_tol,
                check_ok=ok)]
    emit(Report("eisenstein-check", rows, {}), config)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number: {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number: {text!r}")
    return value


def _point(text: str) -> Point3:
    parts = text.rsplit(",", 1)
    try:
        if len(parts) != 2:
            raise ValueError
        return Point3(complex(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"point must be 'z,r' with complex z and r > 0, got {text!r}")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--group", choices=sorted(GROUPS))
    common.add_argument("--rep", help="'trivial' or a character file path")
    common.add_argument("--height", type=int)
    common.add_argument("--norm-bound", dest="norm_bound", type=float)
    common.add_argument("--A", dest="A", type=float)
    common.add_argument("--out", help="write the report here (atomically)")
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--config", help="'key = value' config file")

    parser = _Parser(prog="selberg3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("enumerate", parents=[common],
                   help="enumerate group elements by height; count kinds")
    sub.add_parser("classify", parents=[common],
                   help="conjugacy-class tables for the configured group")

    p = sub.add_parser("lsum", parents=[common],
                       help="lattice character sum via both routes")
    p.add_argument("--u", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--v", type=_fraction, default=Fraction(0))
    p.add_argument("--tau", choices=sorted(_LATTICES))
    p.add_argument("--x-max", dest="x_max", type=_positive, default=1e6)
    p.add_argument("--max-discrepancy", type=_positive,
                   default=LSUM_MAX_DISCREPANCY)

    sub.add_parser("identity", parents=[common],
                   help="exact rational residual of the cusp-class identity")

    p = sub.add_parser("zeta", parents=[common],
                       help="zeta values, log-derivative check, divisor CSV")
    p.add_argument("--s", action="append", type=_finite,
                   help="evaluation point, repeatable (default 2.0 2.5)")
    p.add_argument("--trs0", type=_finite,
                   help="trace of the scattering matrix at s = 0 "
                        "(default: parity-minimal choice)")
    p.add_argument("--documented-order", type=int,
                   help="externally documented meromorphy order to contrast")

    p = sub.add_parser("trace", parents=[common],
                       help="geometric side for the resolvent pair (s, B)")
    p.add_argument("--s", type=_finite, default=2.0)
    p.add_argument("--B", type=_finite, default=3.0)

    p = sub.add_parser("eisenstein-check", parents=[common],
                       help="eigenvalue-equation residual of the series")
    p.add_argument("--s", type=_finite, default=2.0)
    p.add_argument("--point", type=_point,
                   default=Point3(complex(0.3, 0.2), 1.1))
    p.add_argument("--fd-step", dest="fd_step", type=_positive, default=1e-3)
    p.add_argument("--residual-tol", dest="residual_tol", type=_positive,
                   default=1e-3)
    return parser


COMMANDS = {
    "enumerate": cmd_enumerate,
    "classify": cmd_classify,
    "lsum": cmd_lsum,
    "identity": cmd_identity,
    "zeta": cmd_zeta,
    "trace": cmd_trace,
    "eisenstein-check": cmd_eisenstein_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        return COMMANDS[args.command](config, args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (CompletenessError, EnumerationCapError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    # quadrature.QuadratureError is a RuntimeError
    except (ValueError, ArithmeticError, RuntimeError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

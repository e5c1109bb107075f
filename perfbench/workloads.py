"""The three seeded workloads and the checks every op runs.

Each workload turns (seed, pass index) into a list of op inputs with
`inputs`, a pure function, and runs one op per input with `run_op`.  Ops
call only public functions of `selberg3.*` (or the `selberg3` CLI), wrap
each call in a tracer span named `<module>.<what>`, and check the output;
a failed check raises `CheckFailed`, which the op log counts.

No op passes `cache_dir` or `--cache-dir`: every class list is built in
memory from the group's definition.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from selberg3.arithmetic_group import (EISENSTEIN_GROUP, PICARD, GroupData,
                                       build_group_data, collect_axes,
                                       cuspidal_elliptic_classes,
                                       enumerate_elements,
                                       non_cuspidal_elliptic_classes,
                                       primitive_loxodromic_classes,
                                       stabilizer_data)
from selberg3.eisenstein import coset_representatives, eigen_check
from selberg3.geometry import Point3
from selberg3.lattice_lfn import (HEX_LATTICE, SQUARE_LATTICE, Lattice,
                                  LatticeCharacter, L_value_direct,
                                  L_value_kronecker, kappa_lattice)
from selberg3.representation import (find_character, singular_spaces,
                                     trivial_rep)
from selberg3.trace_formula import (cosh_integral, cosh_integral_quad,
                                    cuspidal_identity_check, geometric_side,
                                    loxodromic_term)
from selberg3.transform import g_from_h, resolvent_pair
from selberg3.zeta import (build_zeta_class_data, central_difference_check,
                           geometric_blocks, xi_log_derivative, zeta_truncated)

from harness import (REFERENCE_S, CheckFailed, OpLog, Timing, Tracer, check,
                     child_env, import_probe, stop_sampling, within)

GROUPS = {"picard": PICARD, "eisenstein": EISENSTEIN_GROUP}
# CLI defaults, used for every class-list build
HEIGHT = 6
NORM_BOUND = 14.0
A_CUTOFF = 5.0
CHARACTERS = {"picard": ("trivial", "sign"), "eisenstein": ("trivial", "cube")}
OMEGA = cmath.exp(2j * math.pi / 3)
LATTICES = {"square": SQUARE_LATTICE, "hex": HEX_LATTICE,
            "1+omega": Lattice(complex(0.5, math.sqrt(3.0) / 2.0))}
CHILD_TIMEOUT_S = 150
# Runs one CLI command as `python -m selberg3.cli` would, measuring the
# reference loop before, during (harness.sampled) and after it in the same
# process; the parent takes that time out of the command's wall time.
CLI_CHILD = """
import json, runpy, sys
sys.path.insert(0, sys.argv[1])
from harness import reference_time, sampled
timing_path = sys.argv[2]
sys.argv = ["selberg3", *sys.argv[3:]]

def cli():
    try:
        runpy.run_module("selberg3.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    return 0

before = reference_time()
code, _, inside = sampled(cli)
with open(timing_path, "w") as f:
    json.dump([before, *inside, reference_time()], f)
sys.exit(code)
"""
CLI_COMMANDS = ("enumerate", "classify", "lsum", "identity", "zeta", "trace",
                "eisenstein-check")


@dataclass(frozen=True)
class Checks:
    """Golden values and tolerances the ops are checked against."""

    # sha256 of the sorted class lists (see `class_fingerprint`) at height 6,
    # norm bound 14, recorded from the seed implementation
    fingerprints: dict = field(default_factory=lambda: {
        "picard": "50e0699a92e00214c1343c6dfc582bba6a12dab9663279c0d019079b6287799e",
        "eisenstein": "ed466c6e885761cb0caa02390af9ce98cd31231fa58d5672163791c77eb7d624",
    })
    # (elements, cuspidal elliptic, loxodromic, non-cuspidal elliptic)
    class_counts: dict = field(default_factory=lambda: {
        "picard": (948, 4, 28, 1), "eisenstein": (870, 3, 18, 1)})
    # lattice Euler constants gamma + L'/L(1, chi_D) for D = -4 and -3
    kappa_exact: dict = field(default_factory=lambda: {
        "square": 0.8228252496788470, "hex": 0.9454972808716807})
    kappa_tol: float = 1e-3
    lsum_tol: float = 5e-3
    pair_tol: float = 1e-9
    logA_tol: float = 1e-9
    lox_tol: float = 1e-13
    cosh_tol: float = 1e-8
    zeta_tol: float = 1e-6
    eigen_tol: float = 1e-3
    transform_tol: float = 1e-6


def class_fingerprint(gd: GroupData) -> str:
    lox = sorted((c.T0.key(), c.m, f"{c.N0:.9f}", len(c.merged_axes))
                 for c in gd.loxodromic)
    ce = sorted((c.representative.key(), c.centralizer_order)
                for c in gd.cuspidal_elliptic)
    nce = sorted((c.representative.key(), c.order_primitive)
                 for c in gd.non_cuspidal_elliptic)
    return hashlib.sha256(repr((lox, ce, nce)).encode()).hexdigest()


def make_character(tr: Tracer, group: str, name: str):
    g = GROUPS[group]
    if name == "trivial":
        return trivial_rep(g.ring)
    with tr.span("representation.find_character"):
        if name == "sign":
            return find_character(PICARD, (1, 1), -1, -1, 1)
        return find_character(EISENSTEIN_GROUP, (1, 2), OMEGA, OMEGA, 1)


def traced_build(tr: Tracer, group: str) -> GroupData:
    """`build_group_data` as its sequence of public calls, one span each."""
    g = GROUPS[group]
    with tr.span("arithmetic_group.enumerate"):
        elements = enumerate_elements(g, HEIGHT)
    with tr.span("arithmetic_group.stabilizer"):
        stab = stabilizer_data(g)
    with tr.span("arithmetic_group.cuspidal_elliptic"):
        ce = cuspidal_elliptic_classes(g, elements)
    with tr.span("arithmetic_group.collect_axes"):
        axes = collect_axes(elements, NORM_BOUND)
    with tr.span("arithmetic_group.loxodromic_merge"):
        lox = primitive_loxodromic_classes(g, NORM_BOUND, HEIGHT, elements)
    with tr.span("arithmetic_group.non_cuspidal_elliptic"):
        nce = non_cuspidal_elliptic_classes(g, elements, NORM_BOUND)
    tr.note("arithmetic_group.elements", len(elements))
    tr.note("arithmetic_group.axes", len(axes))
    tr.note("arithmetic_group.loxodromic_classes", len(lox))
    tr.note("arithmetic_group.ambiguous_classes", sum(c.ambiguous for c in lox))
    return GroupData(group=g, height=HEIGHT, norm_bound=NORM_BOUND,
                     elements=elements, stabilizer=stab, cuspidal_elliptic=ce,
                     loxodromic=lox, non_cuspidal_elliptic=nce)


def check_classes(checks: Checks, group: str, gd: GroupData) -> None:
    counts = (len(gd.elements), len(gd.cuspidal_elliptic), len(gd.loxodromic),
              len(gd.non_cuspidal_elliptic))
    check(counts == checks.class_counts[group],
          f"{group} class counts {counts} != {checks.class_counts[group]}")
    digest = class_fingerprint(gd)
    check(digest == checks.fingerprints[group],
          f"{group} class fingerprint {digest[:16]}... differs from the golden "
          f"{checks.fingerprints[group][:16]}...")


class Workload:
    name = ""
    modules: tuple = ()          # what the set-up import probe imports
    uses_children = False        # the work runs in child processes
    min_passes = 1

    def __init__(self, seed: int, checks: Checks, tracer: Tracer, log: OpLog,
                 root: str, traced_run: bool = False):
        self.seed = seed
        self.traced_run = traced_run
        self.checks = checks
        self.tr = tracer
        self.log = log
        self.root = root

    @classmethod
    def inputs(cls, seed: int, k: int) -> list:
        """The op inputs of pass k; a pure function of (seed, k)."""
        raise NotImplementedError

    def setup(self) -> None:
        """One-time precomputation, timed into setup_s."""

    def run_op(self, spec, traced: bool) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, traced: bool) -> None:
        for spec in self.inputs(self.seed, k):
            self.log.run(spec[0], lambda: self.run_op(spec, traced),
                         timed=self.timed(spec))

    def timed(self, spec) -> bool:
        """Whether the op's latency enters op_p50_ms and op_tail_ms."""
        return True

    def close(self) -> None:
        pass


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------

_DENOMINATORS = (2, 3, 4, 6)


def _character(rng: random.Random) -> tuple:
    while True:
        du, dv = rng.choice(_DENOMINATORS), rng.choice(_DENOMINATORS)
        u, v = Fraction(rng.randrange(du), du), Fraction(rng.randrange(dv), dv)
        if u or v:
            return u, v


class LatticeSums(Workload):
    """kappa and L-values by direct summation, checked against closed forms.

    Every op covers both lattices, so all L ops cost the same and so do all
    kappa ops: each latency statistic then reads one kind of op.
    """

    name = "lattice_sums"
    modules = ("selberg3.lattice_lfn",)
    KAPPA = ("square", "hex")
    L_VALUE = ("square", "1+omega")

    @classmethod
    def inputs(cls, seed, k):
        rng = _rng(seed, k)
        return [("kappa",), ("L", *_character(rng)), ("L", *_character(rng))]

    def run_op(self, spec, traced):
        if spec[0] == "kappa":
            for name in self.KAPPA:
                with self.tr.span("lattice_lfn.kappa"):
                    fit = kappa_lattice(LATTICES[name])
                self.tr.note("lattice_lfn.kappa_checkpoints",
                             len(fit.checkpoints))
                within(f"kappa({name}) vs closed form",
                       abs(fit.kappa - self.checks.kappa_exact[name]),
                       self.checks.kappa_tol)
            return
        psi = LatticeCharacter(*spec[1:])
        for name in self.L_VALUE:
            with self.tr.span("lattice_lfn.L_direct"):
                direct = L_value_direct(LATTICES[name], psi, x_max=1e6)
            with self.tr.span("lattice_lfn.L_kronecker"):
                closed = L_value_kronecker(LATTICES[name], psi)
            within(f"L({name}, {spec[1]}, {spec[2]}) direct vs Kronecker",
                   abs(direct.value - closed), self.checks.lsum_tol)


# ---------------------------------------------------------------------------

_PAIRS = [(g, c) for g in GROUPS for c in CHARACTERS[g]]


class SpectralEval(Workload):
    """Read-only trace-formula, zeta, Eisenstein and transform ops over
    class data built once in set-up.

    The set-up builds both class lists at the CLI defaults, checks them
    against the golden fingerprints and the exact cuspidal identity, and
    is the benchmark's measurement of the group layer: setup_s end to end,
    and (traced) the five build stages one span each.
    """

    name = "spectral_eval"
    modules = ("selberg3.arithmetic_group", "selberg3.representation",
               "selberg3.trace_formula", "selberg3.zeta",
               "selberg3.eisenstein", "selberg3.transform")
    # A pass holds ten picard and two eisenstein trace pairs among 15 ops.
    # From two passes on, the median op and the tail (ten samples beyond)
    # both fall inside the block of picard pairs, not at its edge, where
    # slow picard and fast eisenstein pairs would mix.
    min_passes = 2

    @classmethod
    def inputs(cls, seed, k):
        rng = _rng(seed, k)
        ops = []
        for g, c in _PAIRS[:2] * 5 + _PAIRS[2:]:
            s = rng.uniform(1.1, 3.0)
            ops.append(("trace_pair", g, c, s, s + rng.uniform(0.3, 3.0),
                        rng.choice((1.0, -1.0))))
        ops.append(("zeta", *rng.choice(_PAIRS), rng.uniform(1.2, 4.0)))
        ops.append(("eigen", rng.choice(tuple(GROUPS)), rng.uniform(-0.5, 0.5),
                    rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6),
                    rng.uniform(1.5, 3.0), rng.choice((4, 6, 8))))
        s = rng.uniform(1.1, 3.0)
        ops.append(("transform", s, s + rng.uniform(0.3, 3.0),
                    rng.uniform(0.0, 5.0)))
        rng.shuffle(ops)
        return ops

    def setup(self):
        tr = self.tr
        self.gdata = {}
        for g in GROUPS:
            self.gdata[g] = (traced_build(tr, g) if self.traced_run else
                             build_group_data(GROUPS[g], HEIGHT, NORM_BOUND))
            self.log.run("classes", lambda g=g: self._check_build(g),
                         timed=False)
        self.chars, self.zdata, self.sing = {}, {}, {}
        for g, c in _PAIRS:
            chi = make_character(tr, g, c)
            self.chars[g, c] = chi
            with tr.span("representation.singular_spaces"):
                self.sing[g, c] = singular_spaces(chi, self.gdata[g].stabilizer)
            with tr.span("zeta.build_class_data"):
                self.zdata[g, c] = build_zeta_class_data(
                    self.gdata[g].loxodromic, chi)
            self.log.run("identity", lambda g=g, c=c: self._check_identity(g, c),
                         timed=False)

    def _check_build(self, g):
        gd = self.gdata[g]
        check_classes(self.checks, g, gd)
        if self.traced_run:
            # the traced set-up builds step by step; it must agree exactly
            check(gd == build_group_data(GROUPS[g], HEIGHT, NORM_BOUND),
                  f"{g}: the step-by-step build differs from build_group_data")

    def _check_identity(self, g, c):
        gd, sing = self.gdata[g], self.sing[g, c]
        residual = cuspidal_identity_check(
            gd.cuspidal_elliptic, self.chars[g, c], sing.k_infinity,
            sing.l_infinity, gd.group.index)
        check(residual.is_zero,
              f"{g}/{c}: cuspidal identity residual {residual} != 0")

    def run_op(self, spec, traced):
        getattr(self, "_" + spec[0])(*spec[1:])

    def _trace_pair(self, g, c, s, big, trS0):
        tr, ck = self.tr, self.checks
        gd, chi = self.gdata[g], self.chars[g, c]
        triple = resolvent_pair(s, big)
        with tr.span("trace_formula.geometric_side"):
            rep = geometric_side(triple, gd, chi, A=A_CUTOFF,
                                 norm_bound=NORM_BOUND)
        with tr.span("zeta.build_class_data"):
            data = build_zeta_class_data(gd.loxodromic, chi)
        with tr.span("zeta.geometric_blocks"):
            blocks = geometric_blocks(gd, chi)
        with tr.span("zeta.xi_log_derivative"):
            xi_s = xi_log_derivative(s, data, blocks, trS0,
                                     power_norm_bound=NORM_BOUND)
            xi_b = xi_log_derivative(big, data, blocks, trS0,
                                     power_norm_bound=NORM_BOUND)
        # the completed pair: finite part minus the trS0 block is spectral
        lhs = rep.finite_part - trS0 * (1.0 / (4.0 * s * s)
                                        - 1.0 / (4.0 * big * big))
        pair_err = abs(lhs - (xi_s / (2.0 * s) - xi_b / (2.0 * big)))
        logA_err = abs(rep.logA_coefficient - rep.expected_logA_coefficient)
        tr.note("zeta.completed_pair_error", pair_err)
        tr.note("trace_formula.logA_error", logA_err)
        with tr.span("trace_formula.loxodromic_term"):
            lox = loxodromic_term(triple.g, gd.loxodromic, chi, NORM_BOUND)
        tr.note("trace_formula.loxodromic_terms", lox.terms_used)
        worst_cosh = 0.0
        for _, t in blocks.ce_weights:
            with tr.span("trace_formula.cosh_integral"):
                series = cosh_integral(s, t)
            worst_cosh = max(worst_cosh, abs(series - cosh_integral_quad(s, t)))
        label = f"{g}/{c} (s={s:.4f}, B={big:.4f}, trS0={trS0:+.0f})"
        within(f"{label} completed pair", pair_err, ck.pair_tol)
        within(f"{label} log A cancellation", logA_err, ck.logA_tol)
        within(f"{label} loxodromic term vs geometric side",
               abs(lox.value - rep.loxodromic_term), ck.lox_tol)
        within(f"{label} cosh integral series vs quadrature", worst_cosh,
               ck.cosh_tol)

    def _zeta(self, g, c, s):
        data = self.zdata[g, c]
        with self.tr.span("zeta.zeta_truncated"):
            z = zeta_truncated(s, data)
        with self.tr.span("zeta.central_difference"):
            cd = central_difference_check(s, data)
        check(cmath.isfinite(z) and z != 0, f"zeta({s}) = {z} for {g}/{c}")
        within(f"{g}/{c} log-derivative central difference at s={s:.4f}",
               cd.relative_error, self.checks.zeta_tol)

    def _eigen(self, g, x, y, r, s, height):
        group = GROUPS[g]
        chi = self.chars[g, "trivial"]
        v = self.sing[g, "trivial"].V_infinity[:, 0]
        self.tr.note("eisenstein.cosets",
                     len(coset_representatives(group, height)))
        with self.tr.span("eisenstein.eigen_check"):
            res = eigen_check(Point3(complex(x, y), r), s, chi, v, group,
                              height)
        within(f"{g} eigen residual at ({x:.3f}, {y:.3f}, {r:.3f}), s={s:.3f}, "
               f"height {height}", res, self.checks.eigen_tol)

    def _transform(self, s, big, x):
        triple = resolvent_pair(s, big)
        with self.tr.span("transform.g_from_h"):
            val = g_from_h(triple.h, x)
        within(f"g_from_h(s={s:.4f}, B={big:.4f}) at x={x:.4f}",
               abs(val - triple.g(x)), self.checks.transform_tol)


# ---------------------------------------------------------------------------


def _rows_ok(rows: list, key: str) -> bool:
    return bool(rows) and all(r.get(key) == "true" for r in rows)


class CliSession(Workload):
    """Every subcommand at default flags, each in a fresh interpreter, plus
    a bare import of selberg3.cli."""

    name = "cli_session"
    modules = ("selberg3.cli",)
    uses_children = True

    def setup(self):
        work = os.path.join(self.root, ".perfbench_work")
        os.makedirs(work, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=work)
        self.env = child_env(os.path.join(self.root, "src"))

    def close(self):
        if hasattr(self, "workdir"):
            shutil.rmtree(self.workdir, ignore_errors=True)

    @classmethod
    def inputs(cls, seed, k):
        ops = [("cli", c) for c in ("import",) + CLI_COMMANDS]
        _rng(seed, k).shuffle(ops)
        return ops

    def timed(self, spec):
        # the bare import is timed per layer (cli.import_s); op latency is
        # that of the seven subcommands
        return spec[1] != "import"

    def run_op(self, spec, traced):
        command = spec[1]
        if command == "import":
            with self.tr.span("cli.import"):
                import_probe(list(self.modules), self.env["PYTHONPATH"],
                             self.workdir)
            return
        out_path, err_path, timing_path = (
            os.path.join(self.workdir, name)
            for name in ("stdout", "stderr", "timing.json"))
        stop_sampling()
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                self.tr.span("cli." + command):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CLI_CHILD, os.path.dirname(__file__),
                 timing_path, command, "--format", "json"],
                cwd=self.workdir, env=self.env, stdout=out, stderr=err,
                timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
        with open(err_path) as f:
            check(proc.returncode == 0,
                  f"{command} exited {proc.returncode}: {f.read().strip()[-300:]}")
        with open(timing_path) as f:
            refs = json.load(f)
        try:
            with open(out_path) as f:
                payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{command} printed unparseable JSON: {exc}")
        check(payload.get("command") == command,
              f"{command}: report names command {payload.get('command')!r}")
        self._check_payload(command, payload)
        return Timing(wall - sum(refs), REFERENCE_S * len(refs) / sum(refs))

    def _check_payload(self, command, p):
        elements, ce, lox, nce = self.checks.class_counts["picard"]
        rows = p["rows"]
        if command == "enumerate":
            total = {r["kind"]: r["count"] for r in rows}.get("total")
            check(total == str(elements), f"enumerate total {total} != {elements}")
        elif command == "classify":
            got = {r["kind"]: r["count"] for r in rows}
            want = {"cuspidal_elliptic": str(ce), "loxodromic": str(lox),
                    "non_cuspidal_elliptic": str(nce)}
            check(got == want, f"classify counts {got} != {want}")
        elif command == "lsum":
            check(_rows_ok(rows, "within_bound"), "lsum outside its bound")
        elif command == "identity":
            check(_rows_ok(rows, "exact_zero"), "identity residual nonzero")
        elif command in ("zeta", "eisenstein-check"):
            check(_rows_ok(rows, "check_ok"), f"{command} check failed")
        elif command == "trace":
            check(_rows_ok(p["logA_check"], "cancel_ok"),
                  "trace log A cancellation failed")


WORKLOADS = {w.name: w for w in (LatticeSums, SpectralEval, CliSession)}

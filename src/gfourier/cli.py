"""Command line driver: build groupoids, run verification suites, compute norms.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Reports render as a human table or as machine JSON carrying the same values
in the same order, and are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import algebra as alg
from . import norms as nrm
from . import regular as reg
from .checks import SUITES, CheckRecord, run_suites
from .duality import duality_report
from .fileio import (
    FileFormatError,
    read_arrow_function,
    read_groupoid,
    write_groupoid,
)
from .groupoid import (
    FiniteGroupoid,
    cyclic_table,
    enumerate_bisections,
    group_bundle,
    group_groupoid,
    pair_groupoid,
    product_with_pair_groupoid,
    source_permutation,
    transformation_groupoid,
    validate,
)

USAGE_ERROR = 2
CHECK_ERROR = 1


@dataclass
class RunReport:
    command: str
    seed: int
    groupoid: str
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def exit_status(self) -> int:
        return CHECK_ERROR if any(r.failed for r in self.records) else 0

    def render_human(self) -> str:
        lines = [
            f"command: {self.command}",
            f"seed: {self.seed}",
            f"groupoid: {self.groupoid}",
            f"{'check':42} {'status':6} {'value':34} {'tol':10} witness",
        ]
        for r in self.records:
            lines.append(f"{r.name:42} {r.status:6} {r.value:34} {r.tolerance:10} {r.witness}")
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines) + "\n"

    def render_machine(self) -> str:
        payload = {
            "command": self.command,
            "seed": self.seed,
            "groupoid": self.groupoid,
            "records": [asdict(r) for r in self.records],
            "exit": self.exit_status,
        }
        return json.dumps(payload, indent=1) + "\n"


def _emit(report: RunReport, fmt: str, out: str) -> int:
    text = report.render_machine() if fmt == "machine" else report.render_human()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return report.exit_status


def _summary(g: FiniteGroupoid) -> str:
    low, high = float(g.unit_weights.min()), float(g.unit_weights.max())
    # :g keeps six digits; weights that differ beyond them are printed in full
    show = repr if low != high and f"{low:g}" == f"{high:g}" else "{:g}".format
    profile = "counting" if g.counting else f"weights in [{show(low)}, {show(high)}]"
    return f"{g.n_arrows} arrows, {g.n_units} units, {profile}"


def _validated(g: FiniteGroupoid, path: str) -> FiniteGroupoid:
    """g itself when it is a groupoid; otherwise a FileFormatError naming its first violation."""
    violations = validate(g, max_report=1).violations
    if violations:
        raise FileFormatError(f"{path} does not define a groupoid: {violations[0]}")
    return g


def _build_groupoid(args) -> FiniteGroupoid:
    if args.kind == "pair":
        if args.n is None or args.n < 1:
            raise FileFormatError("pair needs a positive point count")
        return pair_groupoid(args.n)
    if args.kind == "group":
        table = _table_from_args(args)
        return group_groupoid(table)
    if args.kind == "bundle":
        tables = [cyclic_table(k) for k in args.cyclic or []]
        if args.table:
            tables += [json.loads(t) for t in args.table]
        if not tables:
            raise FileFormatError("bundle needs at least one fiber (--cyclic or --table)")
        return group_bundle(tables)
    if args.kind == "product-i2":
        if not args.src:
            raise FileFormatError("product-i2 needs --from FILE")
        return product_with_pair_groupoid(_validated(read_groupoid(args.src), args.src))
    if args.kind == "transformation":
        table = _table_from_args(args)
        if args.action is None:
            raise FileFormatError("transformation needs --action JSON")
        return transformation_groupoid(table, json.loads(args.action))
    raise FileFormatError(f"unknown kind {args.kind!r}")


def _table_from_args(args) -> np.ndarray:
    if args.cyclic:
        return cyclic_table(args.cyclic[0])
    if args.table:
        return np.asarray(json.loads(args.table[0]), dtype=int)
    raise FileFormatError("need --cyclic N or --table JSON")


def cmd_build(args) -> int:
    g = _build_groupoid(args)
    write_groupoid(args.out, g)
    print(f"wrote {args.out}: {_summary(g)}")
    return 0


def cmd_check(args) -> int:
    g = read_groupoid(args.groupoid)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = RunReport(
        command=f"check {args.suite}", seed=args.seed, groupoid=_summary(g)
    )
    timings = {} if args.timings else None
    report.records = run_suites(g, names, seed=args.seed, tol=args.tol, timings=timings)
    for name, (cpu, wall) in (timings or {}).items():
        print(f"timing {name} {cpu:.4f} s wall {wall:.4f} s", file=sys.stderr)
    return _emit(report, args.format, args.out)


def _solved(name: str, value: float, cert) -> CheckRecord:
    """The record of a norm from the SDP solve behind ``cert``, with the
    relative gap (value - lower) / value it reached: "warn" where the
    bracket stayed open, so the value is an upper bound only."""
    gap = (cert.value - cert.witness["lower"]) / cert.value if cert.value else 0.0
    status = "warn" if cert.witness["status"] == "open" else "info"
    return CheckRecord(name, status, f"{value:.12g}", f"gap {gap:.1e}")


def _print_stats(cert, cpu: float, wall: float) -> None:
    """The SDP solve behind ``cert`` (None when no SDP ran) and the CPU and
    wall seconds, on stderr."""
    if cert is not None:
        w = cert.witness
        print(f"stats scaling-steps {w['scaling_steps']}", file=sys.stderr)
        print(f"stats newton-steps {w['iterations']}", file=sys.stderr)
        print(f"stats status {w['status']}", file=sys.stderr)
        print(f"stats bracket {cert.value:.12g} {w['lower']:.12g}", file=sys.stderr)
        print(f"stats sdp-blocks {w['blocks']}", file=sys.stderr)
    print(f"stats cpu {cpu:.4f} s wall {wall:.4f} s", file=sys.stderr)


def cmd_norm(args) -> int:
    start, wall = time.process_time(), time.perf_counter()
    g = _validated(read_groupoid(args.groupoid), args.groupoid)
    phi = read_arrow_function(args.function, g)
    solved = None
    report = RunReport(
        command=f"norm {args.which}", seed=args.seed, groupoid=_summary(g)
    )
    sup = float(np.abs(phi).max(initial=0.0))
    report.records.append(CheckRecord("norm/sup", "info", f"{sup:.12g}", ""))
    if args.which in ("cb",):
        arrow_of = nrm._pair_structure(g)
        if arrow_of is None:
            raise FileFormatError(
                "unsupported: the cb norm is exact only on pair groupoids"
            )
        cert = solved = nrm.schur_cb_norm(phi[arrow_of])
        report.records.append(_solved("norm/cb", cert.value, cert))
    elif args.which == "stieltjes":
        cert = solved = nrm.fourier_stieltjes_norm(g, phi)
        report.records.append(_solved("norm/stieltjes", cert.value, cert))
        report.records.append(
            CheckRecord(
                "norm/order-chain",
                "pass" if sup <= cert.value + 1e-8 else "fail",
                f"sup {sup:.6g} <= {cert.value:.6g}",
                "1e-8",
            )
        )
    elif args.which == "decomp":
        lower, upper = nrm.fourier_norm_bounds(g, phi)
        solved = lower.witness["stieltjes"]
        report.records.append(_solved("norm/decomp-lower", lower.value, solved))
        report.records.append(
            CheckRecord("norm/decomp-upper", "info", f"{upper.value:.12g}", "")
        )
        report.records.append(
            CheckRecord(
                "norm/order-chain",
                "pass" if sup - 1e-8 <= lower.value <= upper.value + 1e-6 else "fail",
                f"{sup:.6g} <= {lower.value:.6g} <= {upper.value:.6g}",
                "1e-6",
            )
        )
    elif args.which == "reduced":
        report.records.append(
            CheckRecord("norm/reduced", "info", f"{reg.reduced_norm(g, phi):.12g}", "")
        )
    elif args.which == "i":
        report.records.append(
            CheckRecord("norm/i-range", "info", f"{alg.i_norm_range(g, phi):.12g}", "")
        )
        report.records.append(
            CheckRecord("norm/i-source", "info", f"{alg.i_norm_source(g, phi):.12g}", "")
        )
        report.records.append(
            CheckRecord("norm/i", "info", f"{alg.i_norm(g, phi):.12g}", "")
        )
    if args.stats:
        _print_stats(solved, time.process_time() - start, time.perf_counter() - wall)
    return _emit(report, args.format, args.out)


def cmd_duality(args) -> int:
    g = read_groupoid(args.groupoid)
    gamma = enumerate_bisections(g)
    if gamma:
        # the round trips compose arrows; finding that no bisection exists
        # needs only ranges and sources, so that case is reported, not rejected
        _validated(g, args.groupoid)
    rep = duality_report(g)
    report = RunReport(command="duality", seed=args.seed, groupoid=_summary(g))
    status = "warn" if rep.bisection_count == 0 else "pass"
    report.records.append(
        CheckRecord(
            "duality/count",
            status,
            str(rep.bisection_count),
            "",
            "no bisections exist" if rep.bisection_count == 0 else "",
        )
    )
    if 0 < rep.bisection_count <= 24:
        for i, a in enumerate(gamma):
            sigma = source_permutation(g, a)
            report.records.append(
                CheckRecord(
                    f"duality/element-{i}", "info",
                    "picks " + ",".join(map(str, a.picks)),
                    "",
                    "sources " + ",".join(map(str, sigma)),
                )
            )
    report.records.append(
        CheckRecord(
            "duality/coverage",
            "pass" if all(rep.arrows_on_bisections) else "warn",
            f"{sum(rep.arrows_on_bisections)}/{g.n_arrows}",
            "",
        )
    )
    report.records.append(
        CheckRecord(
            "duality/round-trips",
            "pass" if all(rep.roundtrip_ok) else "fail",
            f"{sum(rep.roundtrip_ok)}/{rep.bisection_count}",
            "exact",
            rep.failures[0] if rep.failures else "",
        )
    )
    report.records.append(
        CheckRecord("duality/injective", "pass" if rep.injective else "fail", "", "exact")
    )
    return _emit(report, args.format, args.out)


def cmd_report(args) -> int:
    args.suite = "all"
    args.format = "machine"
    return cmd_check(args)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfourier",
        description="finite groupoid convolution algebras, norms, and duality",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--out", default="-")

    b = sub.add_parser("build", help="construct a groupoid and write its definition file")
    b.add_argument("kind", choices=("pair", "group", "bundle", "product-i2", "transformation"))
    b.add_argument("n", type=int, nargs="?", help="point count for kind=pair")
    b.add_argument("--cyclic", type=int, action="append", help="cyclic group order (repeatable)")
    b.add_argument("--table", action="append", help="multiplication table as JSON")
    b.add_argument("--action", help="action table as JSON (rows: group, cols: points)")
    b.add_argument("--from", dest="src", help="input groupoid file for product-i2")
    b.add_argument("--out", required=True)

    c = sub.add_parser("check", help="run a verification suite")
    c.add_argument("groupoid")
    c.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    c.add_argument("--timings", action="store_true",
                   help="print each suite's CPU and wall seconds to stderr")
    c.add_argument("--tol", type=float, default=1e-9)
    common(c)

    n = sub.add_parser("norm", help="compute norms of a function file")
    n.add_argument("groupoid")
    n.add_argument("function")
    n.add_argument("--which", choices=("stieltjes", "cb", "decomp", "reduced", "i"),
                   default="stieltjes")
    n.add_argument("--stats", action="store_true",
                   help="print the SDP's scaling steps, Newton steps of the stall-closing step, "
                        "status (seeded, scaled, active-set or open), bracket, block count and "
                        "the CPU and wall seconds to stderr")
    common(n)

    d = sub.add_parser("duality", help="enumerate bisections and run the round trip")
    d.add_argument("groupoid")
    common(d)

    r = sub.add_parser("report", help="machine report of every suite")
    r.add_argument("groupoid")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--tol", type=float, default=1e-9)
    r.add_argument("--out", default="-")
    r.add_argument("--timings", action="store_true",
                   help="print each suite's CPU and wall seconds to stderr")

    return parser


# the commands by verb; ``main`` looks them up at each call instead of binding them
# into the parser, which is built once per process, so a replaced command function
# (a tracer's wrapper, say) takes effect
COMMANDS = {
    "build": cmd_build,
    "check": cmd_check,
    "norm": cmd_norm,
    "duality": cmd_duality,
    "report": cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0, None) else 0
    try:
        return COMMANDS[args.verb](args)
    except (FileFormatError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

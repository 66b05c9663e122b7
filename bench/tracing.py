"""Spans around the public functions of each gfourier module, from outside.

``Tracer.install`` replaces every reference to a traced function in every
loaded ``gfourier`` module (module attributes and module-level dicts such as
``checks.SUITES``) with a wrapper that records a span: name, start, end and
parent.  ``uninstall`` puts the originals back.  Spans stay in memory until
the run writes them out; per-layer metrics are computed from them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, function, span name); ``_counts`` takes counts from a span's arguments and result
TARGETS = [
    ("groupoid", "pair_groupoid", "groupoid.construct"),
    ("groupoid", "group_groupoid", "groupoid.construct"),
    ("groupoid", "group_bundle", "groupoid.construct"),
    ("groupoid", "product_with_pair_groupoid", "groupoid.construct"),
    ("groupoid", "transformation_groupoid", "groupoid.construct"),
    ("groupoid", "validate", "groupoid.validate"),
    ("groupoid", "enumerate_bisections", "groupoid.enumerate_bisections"),
    ("groupoid", "bisection_through", "groupoid.bisection_through"),
    ("algebra", "convolve", "algebra.convolve"),
    ("algebra", "act_bisection", "algebra.act_bisection"),
    ("algebra", "star", "algebra.star"),
    ("algebra", "vee", "algebra.vee"),
    ("algebra", "module_action", "algebra.module_action"),
    ("algebra", "i_norm", "algebra.i_norm"),
    ("algebra", "i_norm_range", "algebra.i_norm_range"),
    ("algebra", "i_norm_source", "algebra.i_norm_source"),
    ("algebra", "convolution_identity", "algebra.convolution_identity"),
    ("regular", "right_op", "regular.right_op"),
    ("regular", "left_op", "regular.left_op"),
    ("regular", "reduced_norm", "regular.reduced_norm"),
    ("regular", "vn_basis", "regular.vn_basis"),
    ("regular", "reduced_algebra_basis", "regular.reduced_algebra_basis"),
    ("regular", "span_basis", "regular.span_basis"),
    ("regular", "intersect_spans", "regular.intersect_spans"),
    ("regular", "commutant", "regular.commutant"),
    ("numerics", "nullspace", "numerics.nullspace"),
    ("numerics", "orthonormal_span", "numerics.orthonormal_span"),
    ("positivity", "regular_coefficient", "positivity.regular_coefficient"),
    ("positivity", "is_positive_definite", "positivity.is_pd"),
    ("positivity", "gns_bundle", "positivity.gns_bundle"),
    ("positivity", "coefficient", "positivity.coefficient"),
    ("positivity", "pd_to_section", "positivity.pd_to_section"),
    ("positivity", "pd_verdict_integral", "positivity.pd_verdict_integral"),
    ("positivity", "pd_verdict_pointset", "positivity.pd_verdict_pointset"),
    ("sdp", "solve_diag_bound_sdp", "sdp.solve"),
    ("norms", "fourier_stieltjes_norm", "norms.stieltjes"),
    ("norms", "schur_cb_norm", "norms.cb"),
    ("norms", "fourier_norm_bounds", "norms.bounds"),
    ("duality", "duality_report", "duality.report"),
    ("duality", "reconstruct_bisection", "duality.reconstruct"),
    ("duality", "verify_module_map_pair", "duality.verify_pair"),
    ("checks", "suite_axioms", "checks.axioms"),
    ("checks", "suite_algebra", "checks.algebra"),
    ("checks", "suite_regular", "checks.regular-rep"),
    ("checks", "suite_positivity", "checks.positivity"),
    ("checks", "suite_norms", "checks.norms"),
    ("checks", "suite_duality", "checks.duality"),
    ("cli", "cmd_build", "cli.build"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_norm", "cli.norm"),
    ("cli", "cmd_duality", "cli.duality"),
    ("cli", "cmd_report", "cli.report"),
    ("fileio", "read_groupoid", "fileio.read_groupoid"),
    ("fileio", "write_groupoid", "fileio.write_groupoid"),
    ("fileio", "read_arrow_function", "fileio.read_arrow_function"),
]


def _counts(span_name, args, out):
    if span_name == "groupoid.enumerate_bisections":
        return {"bisections": len(out)}
    if span_name == "regular.commutant":
        return {"rows": len(list(args[0])) * int(args[1]) ** 2}
    if span_name == "numerics.nullspace":
        rows, cols = args[0].shape
        return {"mb": rows * cols * 16 / 1e6}
    if span_name == "sdp.solve":
        return {"probes": out.probes, "iterations": out.iterations, "seeded": int(out.status == "seeded")}
    if span_name == "norms.bounds":
        lower, upper = out
        return {"bracket_rel": (upper.value - lower.value) / upper.value}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, counts]
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []

    def _wrap(self, orig, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            spans[idx][4] = _counts(name, args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "gfourier" or k.startswith("gfourier.")]
        for mod, attr, name in TARGETS:
            orig = getattr(sys.modules["gfourier." + mod], attr)
            wrapper = self._wrap(orig, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict):
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                self._patched.append((val, dk, orig))
                                val[dk] = wrapper

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patched.clear()

    def write(self, path) -> None:
        self_ns = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_ns[s[3]] -= s[2] - s[1]
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self_ns):
                fh.write(json.dumps({"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
                                     "self_ns": own, "counts": s[4]}) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        by: dict[str, list[list]] = {}
        for s in self.spans:
            by.setdefault(s[0], []).append(s)

        def mean_ms(name):
            got = by.get(name, [])
            return sum(s[2] - s[1] for s in got) / len(got) / 1e6 if got else 0.0

        def total(name, key):
            return sum((s[4] or {}).get(key, 0) for s in by.get(name, []))

        def per_call(name, key):
            got = by.get(name, [])
            return total(name, key) / len(got) if got else 0.0

        m: dict[str, tuple[float, str]] = {}
        ms = lambda key, name: m.__setitem__(key, (mean_ms(name), "ms"))  # noqa: E731
        us = lambda key, name: m.__setitem__(key, (mean_ms(name) * 1e3, "us"))  # noqa: E731
        per_round = lambda v: v / max(1, rounds)  # noqa: E731

        ms("groupoid.construct_ms", "groupoid.construct")
        ms("groupoid.validate_ms", "groupoid.validate")
        ms("groupoid.enumerate_bisections_ms", "groupoid.enumerate_bisections")
        us("groupoid.bisection_through_us", "groupoid.bisection_through")
        m["groupoid.bisections"] = (per_round(total("groupoid.enumerate_bisections", "bisections")), "count")
        us("algebra.convolve_us", "algebra.convolve")
        us("algebra.act_bisection_us", "algebra.act_bisection")
        calls = sum(len(v) for k, v in by.items() if k.startswith("algebra."))
        m["algebra.calls"] = (per_round(calls), "count")
        us("regular.right_op_us", "regular.right_op")
        us("regular.left_op_us", "regular.left_op")
        us("regular.reduced_norm_us", "regular.reduced_norm")
        ms("regular.vn_basis_ms", "regular.vn_basis")
        ms("regular.span_basis_ms", "regular.span_basis")
        ms("regular.intersect_spans_ms", "regular.intersect_spans")
        m["regular.commutant_rows"] = (per_call("regular.commutant", "rows"), "count")
        ms("numerics.nullspace_ms", "numerics.nullspace")
        ms("numerics.orthonormal_span_ms", "numerics.orthonormal_span")
        m["numerics.nullspace_mb"] = (per_call("numerics.nullspace", "mb"), "MB")
        us("positivity.regular_coefficient_us", "positivity.regular_coefficient")
        us("positivity.is_pd_us", "positivity.is_pd")
        ms("positivity.gns_bundle_ms", "positivity.gns_bundle")
        ms("positivity.pd_to_section_ms", "positivity.pd_to_section")
        ms("positivity.pd_verdict_integral_ms", "positivity.pd_verdict_integral")
        ms("positivity.pd_verdict_pointset_ms", "positivity.pd_verdict_pointset")

        solves = by.get("sdp.solve", [])
        solve_s = sum(s[2] - s[1] for s in solves) / 1e9
        probes, iters = total("sdp.solve", "probes"), total("sdp.solve", "iterations")
        ms("sdp.solve_ms", "sdp.solve")
        m["sdp.probes"] = (per_round(probes), "count")
        m["sdp.iterations"] = (per_round(iters), "count")
        m["sdp.iterations_per_s"] = (iters / solve_s if solve_s else 0.0, "1/s")
        m["sdp.probes_per_solve"] = (probes / len(solves) if solves else 0.0, "count")
        m["sdp.seeded_solves"] = (per_round(total("sdp.solve", "seeded")), "count")

        ms("norms.stieltjes_ms", "norms.stieltjes")
        ms("norms.cb_ms", "norms.cb")
        ms("norms.bounds_ms", "norms.bounds")
        m["norms.bounds_self_ms"] = (self._mean_without("norms.bounds", "sdp.solve"), "ms")
        brackets = [s[4]["bracket_rel"] for s in by.get("norms.bounds", []) if s[4]]
        m["norms.bracket_rel"] = (statistics.median(brackets) if brackets else 0.0, "ratio")

        ms("duality.report_ms", "duality.report")
        us("duality.reconstruct_us", "duality.reconstruct")
        us("duality.verify_pair_us", "duality.verify_pair")
        for suite in ("axioms", "algebra", "regular-rep", "positivity", "norms", "duality"):
            ms(f"checks.{suite}_ms", f"checks.{suite}")
        for verb in ("build", "check", "norm", "duality", "report"):
            ms(f"cli.{verb}_ms", f"cli.{verb}")
        ms("fileio.read_groupoid_ms", "fileio.read_groupoid")
        ms("fileio.write_groupoid_ms", "fileio.write_groupoid")
        ms("fileio.read_arrow_function_ms", "fileio.read_arrow_function")
        return m

    def _mean_without(self, outer: str, inner: str) -> float:
        """Mean duration of ``outer`` spans minus the ``inner`` spans nested in them."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == outer}
        if not own:
            return 0.0
        for s in self.spans:
            if s[0] != inner:
                continue
            p = s[3]
            while p >= 0 and p not in own:
                p = self.spans[p][3]
            if p >= 0:
                own[p] -= s[2] - s[1]
        return sum(own.values()) / len(own) / 1e6

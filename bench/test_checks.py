"""Every output check of the benchmark rejects a deliberately wrong output.

One round of each workload runs on small fixtures; each task's real output
must pass its check, and each perturbed copy of it must be rejected.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gfourier as gf  # noqa: E402
import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from gfourier.duality import DualityReport  # noqa: E402
from gfourier.groupoid import Bisection, ValidationReport  # noqa: E402
from gfourier.norms import NormCertificate  # noqa: E402
from gfourier.positivity import PdVerdict  # noqa: E402


def _bump(a):
    a = np.array(a, dtype=complex)
    a.flat[0] += 1e-3 * max(1.0, float(np.abs(a).max()))
    return a


def _lower_value(cert, factor=1 - 1e-3):
    return dataclasses.replace(cert, value=cert.value * factor)


def _edit_record(text: str, name: str, edit) -> str:
    payload = json.loads(text)
    for rec in payload["records"]:
        if rec["name"] == name:
            edit(rec)
    return json.dumps(payload)


def perturbations(task, out) -> list:
    """Wrong versions of a task's output, each violating what its check asserts."""
    kind = task.kind
    if kind == "construct+validate":
        g, report = out
        table = g.compose_table.copy()
        x, y = np.argwhere(table != -1)[1]
        table[x, y] = (table[x, y] + 1) % g.n_arrows
        return [(g, ValidationReport(("violation",))), (dataclasses.replace(g, compose_table=table), report)]
    if isinstance(out, np.ndarray):
        return [_bump(out)]
    if isinstance(out, float):
        return [out * (1 + 1e-3) + 1e-3]
    if isinstance(out, PdVerdict):
        if out.is_pd:
            return [PdVerdict(False)]
        return [PdVerdict(True), dataclasses.replace(out, vector=np.zeros_like(out.vector))]
    if isinstance(out, NormCertificate) and "rho" in out.witness:
        zero = dict(out.witness, rho=np.zeros_like(out.witness["rho"]))
        return [_lower_value(out), dataclasses.replace(out, witness=zero)]
    if isinstance(out, NormCertificate):
        left = dict(out.witness, left=_bump(out.witness["left"]))
        return [_lower_value(out), dataclasses.replace(out, witness=left)]
    if kind.startswith("bounds/"):
        lower, upper = out
        f, h = upper.witness["terms"][0]
        terms = ((f * 1.01, h),) + tuple(upper.witness["terms"][1:])
        return [(lower, _lower_value(upper, 1 + 1e-3)),
                (lower, dataclasses.replace(upper, witness={"terms": terms})),
                (_lower_value(lower, 0.0), upper)]
    if kind in ("vn_basis", "reduced_algebra_basis", "intersect_spans"):
        return [out[:-1], [_bump(out[0])] + list(out[1:])]
    if kind == "enumerate_bisections":
        return [out[:-1], out + out[:1]]
    if kind == "bisection_through":
        return [None, Bisection(tuple(reversed(out.picks)))]
    if isinstance(out, DualityReport):
        return [dataclasses.replace(out, bisection_count=out.bisection_count + 1),
                dataclasses.replace(out, roundtrip_ok=(False,) + out.roundtrip_ok[1:]),
                dataclasses.replace(out, failures=("x",))]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], int):
        code, text = out
        wrong = [(1, text)]
        if text.startswith("{"):
            last = json.loads(text)["records"][-1]["name"]
            wrong.append((code, _edit_record(text, last, lambda rec: rec.update(status="fail"))))
            # values compared with an oracle; the pair(3) coefficient norm is
            # compared with the cb norm, in the cb task's check
            valued = {"norm/i", "norm/reduced", "norm/cb"} | ({"norm/stieltjes"} if task.group != "p3" else set())
            for rec in json.loads(text)["records"]:
                if rec["name"] in valued:
                    scaled = f"{float(rec['value']) * 1.001:.12g}"
                    wrong.append((code, _edit_record(text, rec["name"], lambda r, v=scaled: r.update(value=v))))
                if rec["name"] == "duality/count":
                    more = str(int(rec["value"]) + 1)
                    wrong.append((code, _edit_record(text, rec["name"], lambda r, v=more: r.update(value=v))))
        return wrong
    raise AssertionError(f"no perturbation for {kind}: {type(out)}")


def accept(task, out) -> None:
    try:
        task.check(out)
    except orc.KnownFault:
        assert task.kind == "bounds/fault"


def exercise(tasks) -> set[str]:
    kinds = set()
    for task in tasks:
        out = task.call()
        accept(task, out)
        for wrong in perturbations(task, out):
            with pytest.raises(orc.CheckFailed):
                task.check(wrong)
        accept(task, out)  # checks that remember earlier outputs still accept the real one
        kinds.add(task.kind)
    return kinds


def test_kernels_checks(monkeypatch):
    monkeypatch.setattr(workloads, "KERNEL_GROUPOIDS", {
        "pair3": lambda: gf.pair_groupoid(3),
        "bundle23w": lambda: gf.group_bundle([gf.cyclic_table(2), gf.cyclic_table(3)], unit_weights=[2.0, 0.5]),
        "transf": workloads.s3_transformation,
        "pair2xI2": lambda: gf.product_with_pair_groupoid(gf.pair_groupoid(2)),
    })
    monkeypatch.setattr(workloads, "KERNEL_INPUTS", 1)
    wl = workloads.Kernels()
    kinds = exercise(wl.round(wl.setup(0), 0))
    assert "pd_to_section" in kinds and "construct+validate" in kinds


def test_norms_checks():
    wl = workloads.Norms()
    kinds = exercise(wl.round(wl.setup(0), 0))
    assert {"stieltjes/pd", "stieltjes/one-probe", "stieltjes/generic", "schur/one-probe",
            "schur/generic", "bounds/pd", "bounds/generic", "bounds/fault"} <= kinds


def test_structure_checks(monkeypatch):
    small = {k: v for k, v in workloads.STRUCTURE_GROUPOIDS.items() if k in ("pair3", "bundle2x5", "transf-s3")}
    monkeypatch.setattr(workloads, "STRUCTURE_GROUPOIDS", small)
    wl = workloads.Structure()
    assert len(exercise(wl.round(wl.setup(0), 0))) == 6


def test_cli_checks():
    wl = workloads.Cli(ROOT)
    state = wl.setup(0)
    try:
        for r in range(wl.min_rounds):
            exercise(wl.round(state, r))
        wl.finish(state)
        state.extra["reports"].append(b"{}")
        with pytest.raises(orc.CheckFailed):
            wl.finish(state)
    finally:
        wl.cleanup(state)


def test_known_fault_is_the_only_tolerated_failure():
    g = gf.group_groupoid(gf.cyclic_table(4))
    o = orc.GroupoidOracle(g)
    lower, upper = gf.fourier_norm_bounds(g, np.ones(4))
    exact = orc.cyclic_a_norm(np.ones(4))
    orc.check_bounds(o, np.ones(4), (lower, upper), exact, "known-fault")
    high = (_lower_value(lower, 1 + 1e-6), upper)
    with pytest.raises(orc.KnownFault):
        orc.check_bounds(o, np.ones(4), high, exact, "known-fault")
    with pytest.raises(orc.CheckFailed) as err:
        orc.check_bounds(o, np.ones(4), high, exact)
    assert not isinstance(err.value, orc.KnownFault)


def test_oracles_agree_with_definitions():
    rng = np.random.default_rng(5)
    g = gf.transformation_groupoid(gf.cyclic_table(12), workloads._z12_action())
    o = orc.GroupoidOracle(g)
    assert o.center_dim() == 4  # free orbit: 1 class; the orbit with isotropy Z3: 3 classes
    f, h = rng.standard_normal(o.n), rng.standard_normal(o.n)
    np.testing.assert_allclose(o.right_matrix(f) @ h, o.convolve(h, f))
    np.testing.assert_allclose(o.left_matrix(f) @ h, o.convolve(f, h))
    z5 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert orc.cyclic_a_norm(np.exp(2j * np.pi * 2 * np.arange(5) / 5)) == pytest.approx(1.0)
    assert orc.cyclic_a_norm(z5) >= np.abs(z5).max()
    assert orc.expected_bisections("pair", 4) == 24
    assert orc.GroupoidOracle(gf.pair_groupoid(3)).bisection_count_brute_force() == 6

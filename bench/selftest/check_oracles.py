"""Each oracle accepts the program's output and rejects a perturbed copy.

Run from the repository root: python3 -m pytest bench/selftest/check_oracles.py
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from common import one_round, run
import oracles

# the reported value each oracle must notice a change in, by op kind
KEYS = {
    "estimate.beta-binomial": "posterior_mean",
    "estimate.gamma-poisson": "posterior.rate",
    "estimate.normal-known-var": "posterior.mean",
    "estimate.normal-inv-gamma": "posterior.alpha",
    "hpd.beta-binomial": "k_alpha",
    "hpd.gamma-poisson": "k_alpha",
    "hpd.normal-known-var": "k_alpha",
    "hpd.cauchy-normal": "k_alpha",
    "hpd.normal-jeffreys": "n_retained",
    "test.point-null": "posterior_null_prob",
    "test.point-null.quadrature": "log10_bf10",
    "test.sweep": "sweep.3.bf10",
    "test.improper": "posterior_null_prob",
    "test.one-sided": "posterior_prob_theta_le_0",
    "predict": "predictive.scale",
}


def bump(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    return v + max(abs(v) * 0.01, 1e-6)


def perturb(op, stdout: str) -> str:
    fmt = op.argv[op.argv.index("--format") + 1] if "--format" in op.argv else "text"
    if op.kind.startswith(("regress", "outliers")):
        row, col = (1, "log10_bf10") if op.kind.startswith("regress") else (
            op.check.keywords["planted"][0], "flagged")
        if fmt == "json":
            key = f"rows.{row}.{col}"
        else:
            rows = list(csv.reader(io.StringIO(stdout)))
            col = {"log10_bf10": "log10(BF)"}.get(col, col)
            j = rows[0].index(col)
            cell = rows[row + 1][j]
            flipped = {"true": "false", "false": "true"}
            rows[row + 1][j] = flipped[cell] if cell in flipped else format(
                bump(float(cell)), ".4f")
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(rows)
            return out.getvalue()
    else:
        key = KEYS[op.kind]
    if fmt == "json":
        obj = json.loads(stdout)
        *path, last = key.split(".")
        node = obj
        for p in path:
            node = node[int(p)] if isinstance(node, list) else node[p]
        last = int(last) if isinstance(node, list) else last
        node[last] = bump(node[last])
        return json.dumps(obj)
    prefix = f"{key}: " if fmt == "text" else f"{key},"
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            value = bump(oracles._scalar(line[len(prefix):].strip()))
            lines[i] = prefix + (str(value).lower() if isinstance(value, bool) else repr(value))
            lines[i] += "\n"
            return "".join(lines)
    raise AssertionError(f"{key} not in the {fmt} report of {op.kind}")


RUNS = {name: one_round(name, 5, 0.05) for name in ("warm_paper", "warm_scan", "warm_regress")}
CASES = [(name, k) for name, (wl, _) in RUNS.items() for k in range(len(wl.ops))
         if wl.ops[k].check is not None and not wl.ops[k].decisive]


def outcome(name: str, k: int):
    wl, result = RUNS[name]
    rec = next(r for r in result["records"] if r[0] == k)
    first = result["first"][str(k)]
    return wl.ops[k], rec[1], first["stdout"], rec[5], first["files"]


@pytest.mark.parametrize("name,k", CASES)
def test_oracle_accepts_program_output(name, k):
    op, code, stdout, stderr, files = outcome(name, k)
    assert run.exit_errors(op, code, stderr) == []
    assert run.output_errors(op, code, stdout, stderr, files) == []


@pytest.mark.parametrize("name,k", CASES)
def test_oracle_rejects_perturbed_output(name, k):
    op, code, stdout, stderr, files = outcome(name, k)
    assert run.output_errors(op, code, perturb(op, stdout), stderr, files)


def test_rejected_inputs_exit_2_or_3_without_traceback():
    wl, result = RUNS["warm_paper"]
    checked = 0
    for k, code, _, _, _, err in result["records"]:
        op = wl.ops[k]
        if op.expect != "ok":
            assert run.exit_errors(op, code, err) == []
            assert run.exit_errors(op, code, "Traceback (most recent call last):\n" + err)
            assert run.exit_errors(op, 0, err)
            checked += 1
    assert checked >= 5


def test_decisive_inputs_fail_only_as_the_known_overflow():
    # at this scale the strong regress design is not decisive enough to overflow
    assert run.judge(*[RUNS["warm_paper"][0].ops, RUNS["warm_paper"][1]])["failures"]
    for name, (wl, result) in RUNS.items():
        for f in run.judge(wl.ops, result)["failures"]:
            assert f["known_defect"] and wl.ops[f["op"]].decisive, f


def test_changed_bytes_on_a_repeat_fail_the_op():
    wl, result = RUNS["warm_paper"]
    first = result["records"][0]
    repeat = list(first)
    repeat[3] = "0" * 40
    verdict = run.judge(wl.ops, {"records": [first, repeat], "first": result["first"]})
    assert verdict["ok"] == [True, False]
    assert "differs" in verdict["failures"][0]["errors"][0]


def test_decisive_oracle_accepts_a_log_scale_report_with_infinite_bf10():
    # the report a fix of ROADMAP item 4 would print for the decisive point-null op
    op = next(o for o in RUNS["warm_paper"][0].ops if o.decisive)
    kw = op.check.keywords
    log10_bf = oracles._log_bf10_normal(kw["x"], kw["sigma"], kw["tau"]) / math.log(10.0)
    assert log10_bf * math.log(10.0) > oracles.LOG_FLOAT_MAX
    report = {"mode": "point-null", "x": kw["x"], "sigma": kw["sigma"], "tau": kw["tau"],
              "method": "closed_form", "bf10": "inf", "log10_bf10": log10_bf,
              "posterior_null_prob": 0.0, "decision": "reject_H0", "evidence": "****"}
    assert run.output_errors(op, 0, json.dumps(report), "", {}) == []
    report["bf10"] = 1e308
    assert run.output_errors(op, 0, json.dumps(report), "", {})


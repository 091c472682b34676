"""bayesdesk benchmark: seeded CLI workloads, oracle-checked, with a traced mode.

Run from the root of a checkout (the directory holding `src/bayesdesk`):

    python3 bench/run.py --workload warm_paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --record

Workloads (see bench/README.md and bench/record.json for sizes and op mixes):
cli_paper runs every op in a fresh interpreter; warm_paper, warm_scan and
warm_regress run `bayesdesk.cli.main(argv)` in one long-lived worker. All
are closed loop with a single client. Every child process gets
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 through its
environment and imports bayesdesk from the checkout's `src`.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The line before it
holds run details: op counts, the tail percentile, fail_ratio, each failure
and the outcome of the decisive-evidence probes, which run once, untimed,
after the timed ops. Generated inputs live under `.bench_tmp/` in the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

import rounds
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
BOOT = "from bayesdesk.cli import entrypoint; entrypoint()"
EXPECT_CODE = {"ok": 0, "usage": 2, "numerical": 3}
# set-up samples behind setup_s, half taken before the timed ops and half
# after them, so their median spans the run's wall time like the op metrics
IMPORT_REPEATS = 6  # fresh `import bayesdesk` runs, for cli_paper
SPAWN_REPEATS = 4  # worker spawns, for the warm workloads
OP_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BAYESDESK_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# judging outcomes

def exit_errors(op: workloads.Op, code: int, stderr: str) -> list[str]:
    """Errors in how an op ended: its exit class and a clean stderr."""
    errors = []
    if "Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr")
    want = EXPECT_CODE[op.expect]
    if code != want:
        errors.append(f"exit {code}, expected {want}")
    elif op.expect != "ok" and not stderr.startswith(("error:", "usage:", "numerical error:")):
        errors.append(f"unexpected stderr {stderr[:80]!r}")
    return errors


def output_errors(op: workloads.Op, code: int, stdout: str, stderr: str, files: dict) -> list[str]:
    """Errors the op's oracle finds in its report and side files."""
    if op.expect != "ok":
        return ["report printed for a rejected input"] if stdout else []
    if op.check is None:
        return []
    try:
        return op.check({"code": code, "stdout": stdout, "stderr": stderr, "files": files})
    except Exception as exc:  # an unreadable report is a failed op, not a crash
        return [f"oracle could not read the report: {exc!r}"]


def known_defect(op: workloads.Op, code: int, stderr: str) -> bool:
    """The decisive-evidence OverflowError crash of ROADMAP item 4."""
    return op.decisive and code == 1 and "OverflowError" in stderr


def judge(ops: list[workloads.Op], run: dict) -> dict:
    """Pass/fail of every record, with the reasons for each failure.

    The oracle reads the first run of each argv; every later run must exit
    the same way and give byte-identical stdout and side files.
    """
    first_errors, first_hash, failures = {}, {}, {}
    ok, known = [], 0
    for k, code, _, out_hash, file_hash, err in run["records"]:
        op = ops[k]
        errors = exit_errors(op, code, err)
        if k not in first_errors:
            first = run["first"][str(k)]
            first_errors[k] = [] if errors else output_errors(op, code, first["stdout"], err,
                                                              first["files"])
            first_hash[k] = (out_hash, file_hash)
        elif (out_hash, file_hash) != first_hash[k]:
            errors.append("output differs from the first run of the same argv")
        errors += first_errors[k]
        ok.append(not errors)
        if errors:
            is_known = known_defect(op, code, err)
            known += is_known
            failure = failures.setdefault(k, {"op": k, "kind": op.kind, "count": 0,
                                              "known_defect": is_known, "errors": errors[:3],
                                              "argv": " ".join(op.argv)[:300]})
            failure["count"] += 1
    return {"ok": ok, "failures": list(failures.values()), "known": known}


# ---------------------------------------------------------------------------
# executing ops

class Worker:
    """One long-lived worker process, spoken to over JSON lines."""

    def __init__(self, root: str, workdir: str, warmup: list[workloads.Op]):
        self.log = open(os.path.join(workdir, "worker.err"), "w")
        argv = json.dumps([op.argv for op in warmup])
        t0 = perf_counter()
        self.proc = subprocess.Popen([sys.executable, WORKER, argv], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log, text=True,
                                     env=child_env(root), cwd=workdir)
        self._read()  # the ready line
        self.setup_s = perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            with open(self.log.name) as fh:
                raise BenchError("worker exited early:\n" + fh.read()[-3000:])
        return json.loads(line)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_warm(worker: Worker, ops: list[workloads.Op], round_len: int, seconds: float,
             rounds_: int | None = None) -> dict:
    return worker.request(cmd="run", ops=[op.argv for op in ops],
                          files=[list(op.files) for op in ops], round_len=round_len,
                          seconds=seconds, rounds=rounds_)


def run_fresh(root: str, workdir: str, ops: list[workloads.Op], round_len: int, seconds: float,
              rounds_: int | None = None, spans_dir: str | None = None) -> dict:
    env = child_env(root)

    def execute(i: int, argv: list[str]):
        if spans_dir is None:
            cmd = [sys.executable, "-c", BOOT, *argv]
        else:
            cmd = [sys.executable, WORKER, "--oneshot", os.path.join(spans_dir, f"{i}.npz"),
                   "--", *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=workdir,
                              timeout=OP_TIMEOUT_S)
        return proc.returncode, perf_counter() - t0, proc.stdout, proc.stderr

    return rounds.run_rounds([op.argv for op in ops], [list(op.files) for op in ops],
                             round_len, seconds, rounds_, execute)


def run_probes(root: str, workdir: str, wl: workloads.Workload,
               worker: Worker | None = None) -> dict:
    """Each probe once, untimed: in `worker` for a warm workload, else fresh."""
    if not wl.probes:
        return judge([], {"records": [], "first": {}})
    if worker is None:
        run = run_fresh(root, workdir, wl.probes, 1, 0.0, 1)
    else:
        run = run_warm(worker, wl.probes, len(wl.probes), 0.0, 1)
    return judge(wl.probes, run)


def fresh_import_s(root: str, workdir: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import bayesdesk"], check=True, env=child_env(root),
                   cwd=workdir, timeout=OP_TIMEOUT_S)
    return perf_counter() - t0


def spawn_s(root: str, workdir: str, warmup: list[workloads.Op]) -> float:
    """Spawn-to-ready seconds of a worker that is closed at once."""
    worker = Worker(root, workdir, warmup)
    worker.close()
    return worker.setup_s


def import_profile(root: str, workdir: str) -> dict:
    """import.* metrics from `python -X importtime -c "import bayesdesk"`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bayesdesk"],
                          capture_output=True, text=True, check=True, env=child_env(root),
                          cwd=workdir, timeout=OP_TIMEOUT_S)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """Total, numpy and scipy cumulative import times in ms.

    numpy and scipy count the entries that bayesdesk's own modules import
    directly, so what one package pulls in of the other is counted once.
    """
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    out = {"import.total_ms": 0.0, "import.numpy_ms": 0.0, "import.scipy_ms": 0.0}
    for i, (_, name, cum_us) in enumerate(entries):
        pkg = name.split(".")[0]
        if name == "bayesdesk":
            out["import.total_ms"] += cum_us / 1e3
        elif pkg in ("numpy", "scipy") and all(
                a.split(".")[0] == "bayesdesk" for a in _ancestors(entries, i)):
            out[f"import.{pkg}_ms"] += cum_us / 1e3
    return out


def _ancestors(entries: list[tuple], i: int):
    # importtime lists a module after its children, one indent step less
    depth = entries[i][0]
    for d, name, _ in entries[i + 1:]:
        if d < depth:
            yield name
            depth = d


# ---------------------------------------------------------------------------
# metrics

def latency_metrics(latencies_s: list[float], ok: list[bool]) -> tuple[dict, float | None]:
    lat = np.array(latencies_s) * 1e3
    metrics = {"ops_per_s": {"value": sum(ok) / float(np.sum(latencies_s)), "unit": "1/s"},
               "op_ms_p50": {"value": float(np.percentile(lat, 50)), "unit": "ms"}}
    pct = tail_percentile(len(lat))
    if pct is not None:
        metrics["op_ms_tail"] = {"value": float(np.percentile(lat, pct)), "unit": "ms"}
    return metrics, pct


def kind_medians(ops: list[workloads.Op], run: dict) -> dict:
    by_kind: dict = {}
    for k, _, elapsed, *_ in run["records"]:
        by_kind.setdefault(ops[k].kind, []).append(elapsed * 1e3)
    return {kind: [round(statistics.median(v), 3), len(v)] for kind, v in by_kind.items()}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten ops above it."""
    if n < 20:
        return None
    return math.floor(100.0 * (n - 10) / n)


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")}}


def untraced(root: str, workdir: str, wl: workloads.Workload, seconds: float) -> tuple:
    if wl.fresh_process:
        setup = [fresh_import_s(root, workdir) for _ in range(IMPORT_REPEATS // 2)]
        run = run_fresh(root, workdir, wl.ops, wl.round_len, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probes = run_probes(root, workdir, wl)
        setup += [fresh_import_s(root, workdir) for _ in range(IMPORT_REPEATS - len(setup))]
    else:
        setup = [spawn_s(root, workdir, wl.warmup) for _ in range(SPAWN_REPEATS // 2 - 1)]
        worker = Worker(root, workdir, wl.warmup)
        setup.append(worker.setup_s)
        try:
            run = run_warm(worker, wl.ops, wl.round_len, seconds)
            probes = run_probes(root, workdir, wl, worker)
        finally:
            worker.close()
        rss_kb = run["maxrss_kb"]
        setup += [spawn_s(root, workdir, wl.warmup) for _ in range(SPAWN_REPEATS - len(setup))]
    verdict = judge(wl.ops, run)
    metrics, pct = latency_metrics([r[2] for r in run["records"]], verdict["ok"])
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    return metrics, verdict, probes, {"tail_percentile": pct, "setup_runs_s": setup,
                                      "kind_ms_p50": kind_medians(wl.ops, run)}


def layer_unit(name: str) -> str:
    if name == "cli.self_ms_per_op":
        return "ms/op"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("calls", "errors")):
        return "count"
    return "ratio"


def traced(root: str, workdir: str, wl: workloads.Workload, seconds: float) -> tuple:
    profiles = [import_profile(root, workdir) for _ in range(3)]
    metrics = {k: {"value": statistics.median(p[k] for p in profiles), "unit": "ms"}
               for k in profiles[0]}
    if wl.fresh_process:
        plain = run_fresh(root, workdir, wl.ops, wl.round_len, seconds / 2)
        probes = run_probes(root, workdir, wl)
        spans_dir = os.path.join(workdir, "spans")
        os.makedirs(spans_dir)
        traced_run = run_fresh(root, workdir, wl.ops, wl.round_len, 0,
                               wl.traced_rounds * len(wl.ops), spans_dir)
        spans = [dict(np.load(os.path.join(spans_dir, f))) for f in sorted(os.listdir(spans_dir))]
    else:
        worker = Worker(root, workdir, wl.warmup)
        try:
            plain = run_warm(worker, wl.ops, wl.round_len, seconds / 2)
            probes = run_probes(root, workdir, wl, worker)
            worker.request(cmd="trace")
            traced_run = run_warm(worker, wl.ops, wl.round_len, 0, wl.traced_rounds)
            path = os.path.join(workdir, "spans.npz")
            worker.request(cmd="dump", path=path)
            spans = [dict(np.load(path))]
        finally:
            worker.close()
    for name, value in tracer.aggregate(spans, len(traced_run["records"])).items():
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    plain_v, traced_v = judge(wl.ops, plain), judge(wl.ops, traced_run)
    rates = [sum(v["ok"]) / sum(r[2] for r in run["records"])
             for v, run in ((plain_v, plain), (traced_v, traced_run))]
    metrics["trace.overhead_ratio"] = {"value": rates[1] / rates[0] if rates[0] else 0.0,
                                       "unit": "ratio"}
    metrics["defect.overflow_probes"] = {"value": probes["known"], "unit": "count"}
    verdict = {"ok": plain_v["ok"] + traced_v["ok"],
               "failures": plain_v["failures"] + traced_v["failures"]}
    return metrics, verdict, probes, {}


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> tuple[dict, dict]:
    base = os.path.join(root, ".bench_tmp")
    workdir = os.path.join(base, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.build(name, seed, workdir, scale)
        measure = traced if trace else untraced
        metrics, verdict, probes, extra = measure(root, workdir, wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no other run is using it
    attempted = len(verdict["ok"])
    failed = attempted - sum(verdict["ok"])
    # a probe may pass (the defect is fixed) or fail with the known
    # OverflowError; any other failure of a probe makes the run incorrect
    unexpected = [f for f in probes["failures"] if not f["known_defect"]]
    result = {"correct": failed == 0 and not unexpected, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {"workload": name, "seed": seed, "trace": int(trace), "attempted": attempted,
               "fail_ratio": failed / attempted, "distinct_ops": len(wl.ops), "sizes": wl.sizes,
               **extra, "failures": verdict["failures"][:20], "probes": len(wl.probes),
               "probe_overflow_failures": probes["known"], "probe_failures": probes["failures"]}
    return result, details


def check_root(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "bayesdesk", "cli.py")):
        raise BenchError(f"no bayesdesk sources under {os.path.join(root, 'src')}; "
                         "run from the root of a checkout")


def summary(name: str, result: dict, details: dict) -> str:
    lines = [f"{name}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} fail_ratio={details['fail_ratio']:.4f} "
             f"probes={details['probes']} "
             f"probe_overflow_failures={details['probe_overflow_failures']}"]
    for k, m in result["metrics"].items():
        note = f"  (p{details['tail_percentile']})" if k == "op_ms_tail" else ""
        lines.append(f"  {k:42s} {m['value']:14.6g} {m['unit']}{note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="measure the environment and write bench/record.json")
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        check_root(root)
        if args.record:
            import record
            record.write(root, os.path.join(BENCH_DIR, "record.json"))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, details = run_workload(root, name, args.seed, args.seconds,
                                           bool(args.trace))
            details["environment"] = environment()
            print(summary(name, result, details), file=sys.stderr)
            print(json.dumps(details))
            results[name] = result
        print(json.dumps(results[names[0]] if len(names) == 1 else results))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

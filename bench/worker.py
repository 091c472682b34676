"""Benchmark worker: runs bayesdesk CLI analyses in one long-lived process.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS/OpenMP thread counts pinned to 1 in its environment. It imports
bayesdesk, runs the warm-up ops, prints a ready line, then answers JSON
requests read line by line from stdin:

- {"cmd": "run", "ops": [...], "round_len": k, "seconds": s, "rounds": r}
  runs the ops in order, round after round, until `seconds` have passed
  at a round boundary (or exactly `rounds` rounds when given), and replies
  with one record per op;
- {"cmd": "trace"} installs the span tracer for the following runs;
- {"cmd": "dump", "path": p} writes the spans recorded so far;
- {"cmd": "exit"}.

`worker.py --oneshot SPANS -- ARGV...` runs one traced analysis in a fresh
process and exits with its code, for the fresh-process workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import bayesdesk.cli

import rounds
import tracer as tracing


def _code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_op(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one `bayesdesk` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = bayesdesk.cli.main(argv)
            elapsed = perf_counter() - t0
        except SystemExit as exc:
            elapsed = perf_counter() - t0
            code = _code(exc)
        except Exception:
            elapsed = perf_counter() - t0
            code = 1
            traceback.print_exc()
    return code, elapsed, out.getvalue(), err.getvalue()


def serve(reply) -> None:
    tracer = None
    for line in sys.stdin:
        req = json.loads(line)
        cmd = req["cmd"]
        if cmd == "exit":
            return
        if cmd == "trace":
            tracer = tracing.Tracer()
            tracer.install()
            reply({"ok": True})
        elif cmd == "dump":
            tracer.dump(req["path"])
            reply({"ok": True})
        elif cmd == "run":
            reply(run_request(req, tracer))


def run_request(req: dict, tracer) -> dict:
    def execute(i: int, argv: list[str]):
        if tracer is not None:
            tracer.op_id = i
        return run_op(argv)

    out = rounds.run_rounds(req["ops"], req["files"], req["round_len"], req["seconds"],
                            req.get("rounds"), execute)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--oneshot":
        spans, argv = sys.argv[2], sys.argv[4:]
        tracer = tracing.Tracer()
        tracer.install()
        code = 1
        try:
            code = bayesdesk.cli.main(argv)
        except SystemExit as exc:
            code = _code(exc)
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            tracer.dump(spans)
        return code
    channel = sys.stdout
    sys.stdout = sys.stderr

    def reply(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    warmup = json.loads(sys.argv[1]) if len(sys.argv) > 1 else []
    for argv in warmup:
        run_op(argv)
    reply({"ready": True})
    serve(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())

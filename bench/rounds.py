"""Runs ops closed loop, one after another; shared by the worker and run.py."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from time import perf_counter


def digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def read_files(paths: list[str]) -> dict:
    out = {}
    for p in paths:
        try:
            with open(p, "rb") as fh:
                out[p] = fh.read().decode()
        except FileNotFoundError:
            out[p] = None
    return out


MIN_OPS = 21  # enough for a tail percentile with ten ops beyond it


def run_rounds(ops: list[list[str]], files: list[list[str]], round_len: int, seconds: float,
               rounds: int | None, execute) -> dict:
    """Run the ops in order, one client, each after the previous one ends.

    Stops at the first round boundary after `seconds` of wall time once at
    least MIN_OPS ops ran, or after exactly `rounds` rounds when given. `execute(i, argv)` returns
    (exit code, seconds, stdout, stderr). Each record is [op index, exit
    code, seconds, stdout digest, side-file digest, stderr tail]; the full
    stdout and side files are kept for the first run of each op.
    """
    records, first = [], {}
    started = perf_counter()
    i = 0
    while True:
        if i % round_len == 0:
            done = i // round_len
            if rounds is not None and done == rounds:
                break
            if (rounds is None and done > 0 and i >= MIN_OPS
                    and perf_counter() - started >= seconds):
                break
        k = i % len(ops)
        for p in files[k]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
        code, elapsed, out, err = execute(i, ops[k])
        side = read_files(files[k])
        records.append([k, code, elapsed, digest(out.encode()),
                        digest(json.dumps(side, sort_keys=True).encode()), err[-4000:]])
        if k not in first:
            first[k] = {"stdout": out, "files": side}
        i += 1
    return {"records": records, "first": {str(k): v for k, v in first.items()},
            "wall": perf_counter() - started}

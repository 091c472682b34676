"""Golden command matrix: digests of every CLI case in cases.txt.

Each non-comment line of cases.txt is one argv for `bayesdesk`, optionally
preceded by NAME=value words that set environment variables for that case.
A case runs in-process through `bayesdesk.cli.main` in a temporary directory
that holds a copy of tests/data as `data/`, so every path a report prints is
relative and the digests do not depend on where the checkout lives.

Per case, digests.json records the exit code and the sha256 of stdout, of
stderr (with each warning raised during the run appended as one
`warning: Category: message` line) and of every file the run wrote. A case
that ends in an uncaught exception is recorded as {"raises": "TypeName"};
the golden test marks it as a strict expected failure.

    python tests/golden/regen.py

rewrites digests.json and prints each case whose record changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CASES = HERE / "cases.txt"
DIGESTS = HERE / "digests.json"
DATA = ROOT / "tests" / "data"

# variables a case may read; each case starts with them unset except where
# it sets them, and COLUMNS pins argparse's wrapping width
_ENV_KEYS = ("BAYESDESK_OUT_DIR", "COLUMNS")


def read_cases(path: Path = CASES) -> list[str]:
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    cases = [ln for ln in lines if ln and not ln.startswith("#")]
    duplicates = sorted({c for c in cases if cases.count(c) > 1})
    if duplicates:
        raise ValueError(f"{path}: duplicate cases: {duplicates}")
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _case_environment(workdir: Path, env: dict[str, str]):
    saved_env = {key: os.environ.get(key) for key in _ENV_KEYS}
    saved_cwd = os.getcwd()
    for key in _ENV_KEYS:
        os.environ.pop(key, None)
    os.environ["COLUMNS"] = "80"
    os.environ.update(env)
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_case(line: str, workdir: Path) -> dict:
    """Run one case in `workdir` (which holds `data/`) and return its record.

    Every file the case writes is hashed and then removed, so the directory
    can be reused for the next case. An uncaught exception propagates.
    """
    from bayesdesk.cli import main

    words = shlex.split(line)
    env = {}
    while words and "=" in words[0] and not words[0].startswith("-"):
        key, _, value = words.pop(0).partition("=")
        if key not in _ENV_KEYS:
            raise ValueError(f"case sets unsupported variable {key!r}: {line}")
        env[key] = value
    out, err = io.StringIO(), io.StringIO()
    try:
        with _case_environment(workdir, env), warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(words)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        for w in caught:
            err.write(f"warning: {w.category.__name__}: {w.message}\n")
        files = {}
        for path in sorted(workdir.rglob("*")):
            rel = path.relative_to(workdir)
            if path.is_file() and rel.parts[0] != "data":
                files[rel.as_posix()] = _sha(path.read_bytes())
        return {"exit": code, "stdout": _sha(out.getvalue().encode()),
                "stderr": _sha(err.getvalue().encode()), "files": files}
    finally:
        for path in workdir.iterdir():
            if path.name != "data":
                shutil.rmtree(path) if path.is_dir() else path.unlink()


def record_case(line: str, workdir: Path) -> dict:
    try:
        return run_case(line, workdir)
    except Exception as exc:  # a crash is recorded; the golden test expects it
        return {"raises": type(exc).__name__}


def make_workdir(parent: Path) -> Path:
    workdir = Path(parent) / "golden"
    shutil.copytree(DATA, workdir / "data")
    return workdir


def load_digests(path: Path = DIGESTS) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def dump_digests(records: dict, path: Path = DIGESTS) -> None:
    # one case per line, in cases.txt order, so a regenerated file diffs by case
    body = ",\n".join(f" {json.dumps(case)}: {json.dumps(rec, sort_keys=True)}"
                      for case, rec in records.items())
    path.write_text("{\n" + body + "\n}\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cases = read_cases()
    old = load_digests()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = make_workdir(Path(tmp))
        new = {case: record_case(case, workdir) for case in cases}
    dump_digests(new)
    changed = 0
    for case, rec in new.items():
        before = old.get(case)
        if before == rec:
            continue
        changed += 1
        if before is None:
            print(f"added: {case}")
        else:
            parts = sorted(k for k in set(before) | set(rec) if before.get(k) != rec.get(k))
            print(f"changed ({', '.join(parts)}): {case}")
    for case in old:
        if case not in new:
            changed += 1
            print(f"removed: {case}")
    print(f"{len(new)} cases, {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

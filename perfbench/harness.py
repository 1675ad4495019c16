"""Running one CLI call in process and checking what it produced.

An observation is everything a call leaves behind: exit code, stdout,
stderr and the files it wrote.  Exact calls are reduced to digests of each
part.  Closed-form calls keep every float of their text as printed
and a digest of the text around them, so a later change may move the last
digits of a closed form but nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import decimal
import hashlib
import io
import math
import re
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import OUT, Call

REL_TOL = 1e-9

# A float has a fraction or an exponent; integers (thresholds, counts, exit
# codes) stay in the text and must match exactly.
_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+|-?\b(?:inf|nan)\b")


@dataclass
class Outcome:
    """One executed call: its latency and whether its output checked out."""

    name: str
    seconds: float
    observation: dict | None
    error: str | None = None


def run_call(cli, call: Call, work_dir: Path) -> Outcome:
    """Invoke ``cli.main`` with the call's flags and capture its outputs.

    The output directory is emptied first so a stale file cannot pass for
    a fresh one.  Time covers only ``main``; capture and hashing are
    outside it.
    """
    out_dir = work_dir / call.name
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    argv = [arg.replace(OUT, str(out_dir)) for arg in call.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except (Exception, SystemExit):  # a call that raises or exits has failed
        error = "raised " + traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if error is None and code not in call.ok_codes:
        error = f"exit code {code}, expected one of {call.ok_codes}: {stderr.getvalue().strip()}"
    observation = None
    if error is None:
        error = validate(call, code, stdout.getvalue(), stderr.getvalue(), out_dir)
    if error is None:
        observation = observe(call, code, stdout.getvalue(), stderr.getvalue(), out_dir)
    return Outcome(call.name, seconds, observation, error)


def _flag(call: Call, name: str) -> str:
    return call.argv[call.argv.index(name) + 1]


def _number(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    if match is None:
        raise ValueError(f"no match for {pattern!r}")
    return float(match.group(1))


def validate(call: Call, code: int, stdout: str, stderr: str, out_dir: Path) -> str | None:
    """Checks that hold for every seed, recorded reference or not.

    Result rows must be complete and in range, simulated threshold costs
    must sit within 10% of the closed form the CLI overlays, and the
    optimizer's answers must respect the budget they were given.
    """
    try:
        if call.argv[0] == "reproduce":
            figure = call.argv[1]
            with open(out_dir / f"{figure}.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != call.rows:
                return f"{len(rows)} result rows, expected {call.rows}"
            for row in rows:
                if (row["runs"], row["test_steps"]) != (_flag(call, "--runs"), _flag(call, "--test-steps")):
                    return f"row {row['param']} has the wrong run profile"
                if not 0.0 <= float(row["mean_risky_freq"]) <= 1.0 or not float(row["mean_cost"]) > 0.0:
                    return f"row {row['param']} is out of range"
            overlay = out_dir / f"{figure}_cost_analytic.dat"
            if overlay.exists():
                lines = overlay.read_text().split("\n")[1:-1]
                for row, line in zip(rows, lines):
                    exact = float(line.split()[1])
                    if abs(float(row["mean_cost"]) - exact) > 0.1 * exact:
                        return f"simulated cost of {row['param']} is {row['mean_cost']}, closed form {exact}"
        elif call.argv[0] == "train":
            # streamed, so the check does not lift the process's peak memory
            rows = 0
            with open(_flag(call, "--out").replace(OUT, str(out_dir)), newline="") as handle:
                for row in csv.DictReader(handle):
                    rows += 1
                    if not 0.0 <= float(row["q_value"]) < math.inf:
                        return f"value table holds {row['q_value']}"
            if rows != call.rows:
                return f"value table has {rows} rows, expected {call.rows}"
        elif call.argv[0] == "optimize":
            threshold = _number(r"optimal threshold[^:]*: (\d+)", stdout) if code == 0 else None
            if threshold is not None and not 1 <= threshold <= 64:
                return f"threshold {threshold} out of range"
            if "--risk-budget" in call.argv:
                budget = float(_flag(call, "--risk-budget"))
                if code == 0 and _number(r"risky frequency\s+(\S+)", stdout) > budget:
                    return "chosen threshold exceeds the risk budget"
                # the minimum is printed to six digits
                if code == 2 and _number(r"risky frequency is (\S+)", stderr) < budget * (1 - 1e-5):
                    return "declared infeasible although the minimum risk meets the budget"
        elif call.argv[0] == "analytic":
            freqs = [float(x) for x in re.findall(r"^\s+\d+\s+(\S+)$", stdout, re.M)]
            risky = _number(r"risky frequency \(age >= \d+\): (\S+)", stdout)
            if not freqs or min(freqs) < 0.0 or sum(freqs) > 1.0 or not 0.0 <= risky <= 1.0:
                return "age frequencies out of range"
    except (OSError, ValueError, KeyError) as err:
        return f"malformed output: {err}"
    return None


def observe(call: Call, code: int, stdout: str, stderr: str, out_dir: Path) -> dict:
    """Reduce a call's outputs to the form its reference is kept in."""
    stdout = stdout.replace(str(out_dir), OUT)
    stderr = stderr.replace(str(out_dir), OUT)
    files = {path.name: _digest(path.read_bytes()) for path in sorted(out_dir.iterdir())}
    if call.exact:
        return {"code": code, "stdout": _digest(stdout), "stderr": _digest(stderr), "files": files}
    text = stdout + "\n--stderr--\n" + stderr
    return {
        "code": code,
        "text": _digest(_FLOAT.sub("{f}", text)),
        "floats": _FLOAT.findall(text),
        "files": files,
    }


def _digest(data: str | bytes) -> str:
    """First 64 bits of the SHA-256, plenty to notice a changed output."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _close(want: str, got: str) -> bool:
    """Floats agree to REL_TOL, or, when printed to a fixed width of six or
    more significant digits, differ by one unit in the last digit (a value
    moved across a rounding boundary)."""
    a, b = float(want), float(got)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    slack = REL_TOL * max(abs(a), abs(b))
    if math.isfinite(a) and math.isfinite(b):
        shown, printed = decimal.Decimal(want).as_tuple(), decimal.Decimal(got).as_tuple()
        if shown.exponent == printed.exponent and min(len(shown.digits), len(printed.digits)) >= 6:
            slack = max(slack, 1.000001 * 10.0**shown.exponent)
    return abs(a - b) <= slack


def mismatch(expected: dict, actual: dict) -> str | None:
    """Describe the first difference between two observations, or None."""
    for key in sorted(set(expected) | set(actual)):
        if key != "floats" and expected.get(key) != actual.get(key):
            return f"{key} differs"
    want, got = expected.get("floats", []), actual.get("floats", [])
    if len(want) != len(got):
        return f"{len(got)} floats, expected {len(want)}"
    for i, (a, b) in enumerate(zip(want, got)):
        if not _close(a, b):
            return f"float {i} is {b}, expected {a}"
    return None

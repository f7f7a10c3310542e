"""Output checks for benchmark jobs.

Every job's output is parsed and checked; any failed check makes the job
count as failed.  ``check`` returns the brackets the job reported, so the
caller can compare them with the reference set and average their widths.
"""

from __future__ import annotations

import json
import math

INVERSION_SLACK = 1e-12  # lower <= upper * (1 + slack)
EXACT_WIDTH = 1e-10  # exact-p1/exact-p2: width <= EXACT_WIDTH * max(1, lower)
REFERENCE_SLACK = 1e-9  # relative room for outward rounding of a bound


class CheckError(Exception):
    pass


def _bracket(obj, p: float | None) -> dict:
    lower, upper, method = float(obj["lower"]), float(obj["upper"]), obj["method"]
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise CheckError(f"non-finite bracket [{lower}, {upper}]")
    if lower > upper * (1.0 + INVERSION_SLACK):
        raise CheckError(f"inverted bracket [{lower!r}, {upper!r}]")
    if method in ("exact-p1", "exact-p2") and upper - lower > EXACT_WIDTH * max(1.0, lower):
        raise CheckError(f"{method} bracket [{lower!r}, {upper!r}] is not tight")
    return {"lower": lower, "upper": upper, "p": p}


def _csv_rows(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    if lines[0] != "p,n,lower,upper,runtime_ms" or len(lines) < 2:
        raise CheckError("unexpected sweep CSV header or no rows")
    rows = []
    for line in lines[1:]:
        p, n, lower, upper, _ = line.split(",")
        lower, upper = float(lower), float(upper)
        if lower > upper * (1.0 + INVERSION_SLACK):
            raise CheckError(f"inverted sweep row {line!r}")
        if float(p) in (1.0, 2.0) and upper - lower > EXACT_WIDTH * max(1.0, lower):
            raise CheckError(f"exact sweep row {line!r} is not tight")
        rows.append({"lower": lower, "upper": upper, "p": float(p), "n": int(n)})
    return rows


def check(job, text: str, root: str) -> tuple[list[dict], dict | None]:
    """Check one job's output text; return (brackets, parsed JSON or None).

    Raises CheckError on the first failed check.
    """
    if job.check == "sweep":
        return _csv_rows(text), None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc
    if job.check == "bracket":
        return [_bracket(obj, job.p)], obj
    if job.check == "both":
        direct = _bracket(obj["direct"], job.p)
        via = _bracket(obj["via_sigma"], job.p)
        if obj["overlap"] is not True:
            raise CheckError("direct and via_sigma brackets do not overlap")
        return [direct, via], obj
    if "result" not in obj:
        raise CheckError("output has no result")
    if job.check.startswith("decompose:"):
        with open(f"{root}/{job.check.split(':', 1)[1]}") as fh:
            expected = json.load(fh)
        got = obj["result"]
        if got["T"] != expected["T"] or got["weights"] != expected["weights"]:
            raise CheckError("decompose did not recover T and the weights")
        if any(abs(complex(*a) - complex(*b)) > 1e-9 for a, b in zip(got["h"], expected["h"])):
            raise CheckError("decompose did not recover the phases")
    return [], obj


def compare_reference(brackets: list[dict], ref: list | None) -> None:
    """Raise CheckError if any bracket is looser than its recorded reference."""
    if ref is None:
        raise CheckError("no reference bracket recorded for this job")
    if len(ref) != len(brackets):
        raise CheckError(f"{len(brackets)} brackets, reference has {len(ref)}")
    for b, (ref_lower, ref_upper) in zip(brackets, ref):
        if b["lower"] < ref_lower - REFERENCE_SLACK * abs(ref_lower):
            raise CheckError(f"lower {b['lower']!r} below reference {ref_lower!r}")
        if b["upper"] > ref_upper + REFERENCE_SLACK * abs(ref_upper):
            raise CheckError(f"upper {b['upper']!r} above reference {ref_upper!r}")

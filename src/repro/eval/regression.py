"""Regression analytics over the experiment run store.

The CI gate used to be a flag zoo: one committed JSON snapshot compared
inline by ``bench_runner.py`` with a hand-tuned ``--max-*``/``--min-*``
flag per section. This module replaces that with three declarative
pieces layered on :class:`~repro.runtime.runstore.RunStore`:

* **expectations** -- a TOML file (or :data:`DEFAULT_EXPECTATIONS`)
  stating, per record section, which identity flags must hold
  (``identical = true``), which metrics have absolute bounds
  (``[sections.NAME.min]`` / ``[sections.NAME.max]``), and which metrics
  may regress at most some ratio against a baseline
  (``[sections.NAME.compare]``, metric -> max current/baseline ratio);
* **baseline comparison** -- :func:`snapshot_baseline` freezes a recorded
  run under a name, :func:`compare_to_baseline` evaluates a fresh record
  against a baseline and the expectations, producing categorized
  :class:`Check` rows (``regression`` / ``identity-broken`` /
  ``missing-section`` / ``scale-mismatch``) and a single pass/fail
  verdict;
* **trend detection** -- :func:`detect_trends` scans the store's metric
  history and flags monotonic drift that no single comparison would
  catch (each run within tolerance of the last, the sum well past it).

A scale mismatch between run and baseline is a categorized outcome, not
an error: the ratio checks are recorded as ``scale-mismatch`` and skipped
(different workloads are not comparable) while identity flags and
absolute bounds -- which are scale-independent contracts -- still apply,
so a deliberate scale bump cannot hard-fail CI with no artifact.

Expectations files parse with the standard library's :mod:`tomllib`.
"""

from __future__ import annotations

import dataclasses
import tomllib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CapstanError
from ..runtime.runstore import BaselineRecord, RunStore, record_sections

#: Check categories (`Check.category`).
PASS = "pass"
REGRESSION = "regression"
IDENTITY_BROKEN = "identity-broken"
MISSING_SECTION = "missing-section"
SCALE_MISMATCH = "scale-mismatch"
SKIPPED = "skipped"

#: The built-in gate, mirroring the flag defaults the bench runner shipped
#: with before the store existed: every batch path bit-identical to its
#: reference, the recorded acceptance speedups, and at most a 2x ratio
#: against the baseline for each section's headline time.
DEFAULT_EXPECTATIONS: Dict[str, Any] = {
    "sections": {
        "runner": {"compare": {"cold_serial_s": 2.0}},
        "costing": {
            "identical": True,
            "min": {"batch_speedup": 5.0},
            "compare": {"batch_s": 2.0},
        },
        "spmu": {
            "identical": True,
            "min": {"speedup": 6.0},
            "compare": {"array_s": 2.0, "mixed_array_s": 2.0},
        },
        "formats": {
            "identical": True,
            "min": {"speedup": 3.0},
            "compare": {"batch_s": 2.0},
        },
        "chunked": {
            "identical": True,
            "max": {"peak_ratio": 1.5},
            "compare": {"chunked_s": 2.0},
        },
        "dse": {
            "identical": True,
            "min": {"hypervolume_ratio": 0.95},
            "max": {"eval_fraction": 0.25, "kilovariant_s": 300.0},
            "compare": {"search_s": 2.0},
        },
    },
    "trends": {"window": 5, "min_drift": 1.1},
}

_SECTION_KEYS = ("identical", "min", "max", "compare")
_MISSING = object()


@dataclasses.dataclass(frozen=True)
class Check:
    """One evaluated expectation."""

    section: str
    name: str
    category: str
    passed: bool
    value: Optional[float] = None
    threshold: Optional[float] = None
    baseline_value: Optional[float] = None
    message: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Trend:
    """Monotonic drift of one metric across consecutive recorded runs."""

    section: str
    metric: str
    run_ids: Tuple[int, ...]
    values: Tuple[float, ...]
    drift: float

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ComparisonReport:
    """Categorized verdict of one record against expectations (+ baseline)."""

    checks: List[Check]
    run: Dict[str, Any]
    baseline: Optional[Dict[str, Any]] = None
    scale_mismatch: bool = False

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def categories(self) -> Dict[str, int]:
        """Counts of the non-pass categories present, for one-line verdicts."""
        counts: Dict[str, int] = {}
        for check in self.checks:
            if check.category in (PASS, SKIPPED):
                continue
            counts[check.category] = counts.get(check.category, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "scale_mismatch": self.scale_mismatch,
            "run": self.run,
            "baseline": self.baseline,
            "categories": self.categories(),
            "checks": [check.to_dict() for check in self.checks],
        }


# --------------------------------------------------------------- expectations


def normalize_expectations(data: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a parsed expectations document into canonical shape.

    Raises :class:`~repro.errors.CapstanError` on unknown keys or
    mistyped bounds so a typo fails loudly instead of silently gating
    nothing.
    """
    known_top = {"version", "sections", "trends"}
    unknown = set(data) - known_top
    if unknown:
        raise CapstanError(f"unknown expectations keys: {', '.join(sorted(unknown))}")
    sections = data.get("sections", {})
    if not isinstance(sections, dict):
        raise CapstanError("expectations 'sections' must be a table")
    normalized: Dict[str, Any] = {"sections": {}}
    for name, spec in sections.items():
        if not isinstance(spec, dict):
            raise CapstanError(f"expectations section {name!r} must be a table")
        bad = set(spec) - set(_SECTION_KEYS)
        if bad:
            raise CapstanError(
                f"unknown keys in expectations section {name!r}: {', '.join(sorted(bad))}"
            )
        entry: Dict[str, Any] = {}
        if "identical" in spec:
            if not isinstance(spec["identical"], bool):
                raise CapstanError(f"section {name!r}: 'identical' must be a boolean")
            entry["identical"] = spec["identical"]
        for kind in ("min", "max", "compare"):
            bounds = spec.get(kind, {})
            if not isinstance(bounds, dict):
                raise CapstanError(f"section {name!r}: {kind!r} must be a table")
            for metric, bound in bounds.items():
                if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                    raise CapstanError(
                        f"section {name!r}: {kind}.{metric} must be a number"
                    )
            if bounds:
                entry[kind] = {metric: float(bound) for metric, bound in bounds.items()}
        normalized["sections"][name] = entry
    trends = data.get("trends", {})
    if not isinstance(trends, dict):
        raise CapstanError("expectations 'trends' must be a table")
    bad = set(trends) - {"window", "min_drift"}
    if bad:
        raise CapstanError(f"unknown keys in expectations trends: {', '.join(sorted(bad))}")
    normalized["trends"] = {
        "window": int(trends.get("window", DEFAULT_EXPECTATIONS["trends"]["window"])),
        "min_drift": float(
            trends.get("min_drift", DEFAULT_EXPECTATIONS["trends"]["min_drift"])
        ),
    }
    return normalized


def load_expectations(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate one ``expectations.toml``."""
    try:
        data = tomllib.loads(Path(path).read_text())
    except tomllib.TOMLDecodeError as exc:
        raise CapstanError(f"malformed expectations file {path}: {exc}") from None
    return normalize_expectations(data)


def default_expectations() -> Dict[str, Any]:
    """A deep copy of :data:`DEFAULT_EXPECTATIONS` callers may mutate."""
    import copy

    return copy.deepcopy(DEFAULT_EXPECTATIONS)


# ---------------------------------------------------------------- evaluation


def _lookup(section: Dict[str, Any], dotted: str) -> Any:
    """Resolve a possibly-dotted metric name; `_MISSING` when absent."""
    value: Any = section
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


def _spec_is_empty(spec: Dict[str, Any]) -> bool:
    return not any(spec.get(kind) for kind in _SECTION_KEYS)


def _absolute_checks(name: str, section: Dict[str, Any], spec: Dict[str, Any]) -> List[Check]:
    checks: List[Check] = []
    if spec.get("identical"):
        value = section.get("identical")
        if value is None:
            checks.append(
                Check(
                    section=name,
                    name="identical",
                    category=MISSING_SECTION,
                    passed=False,
                    message="section records no 'identical' flag",
                )
            )
        else:
            ok = bool(value)
            checks.append(
                Check(
                    section=name,
                    name="identical",
                    category=PASS if ok else IDENTITY_BROKEN,
                    passed=ok,
                    message="" if ok else "batch path diverged from its reference",
                )
            )
    for kind, op in (("min", ">="), ("max", "<=")):
        for metric, bound in spec.get(kind, {}).items():
            value = _lookup(section, metric)
            if value is _MISSING:
                checks.append(
                    Check(
                        section=name,
                        name=f"{kind}:{metric}",
                        category=MISSING_SECTION,
                        passed=False,
                        threshold=bound,
                        message=f"metric {metric!r} not recorded",
                    )
                )
                continue
            if value is None:
                checks.append(
                    Check(
                        section=name,
                        name=f"{kind}:{metric}",
                        category=SKIPPED,
                        passed=True,
                        threshold=bound,
                        message=f"metric {metric!r} recorded as null (not measured)",
                    )
                )
                continue
            ok = float(value) >= bound if kind == "min" else float(value) <= bound
            checks.append(
                Check(
                    section=name,
                    name=f"{kind}:{metric}",
                    category=PASS if ok else REGRESSION,
                    passed=ok,
                    value=float(value),
                    threshold=bound,
                    message="" if ok else f"{metric} = {value:g}, required {op} {bound:g}",
                )
            )
    return checks


def evaluate_expectations(
    record: Dict[str, Any], expectations: Optional[Dict[str, Any]] = None
) -> List[Check]:
    """Evaluate the baseline-free expectations of one record.

    Identity flags and absolute ``min``/``max`` bounds only; ratio
    (``compare``) entries need a baseline and are evaluated by
    :func:`compare_to_baseline`.
    """
    if expectations is None:
        expectations = DEFAULT_EXPECTATIONS
    sections = record_sections(record)
    checks: List[Check] = []
    for name, spec in expectations.get("sections", {}).items():
        if _spec_is_empty(spec):
            continue
        section = sections.get(name)
        if section is None:
            checks.append(
                Check(
                    section=name,
                    name="section",
                    category=MISSING_SECTION,
                    passed=False,
                    message="expected section missing from the record",
                )
            )
            continue
        checks.extend(_absolute_checks(name, section, spec))
    return checks


def _ratio_checks(
    name: str,
    section: Dict[str, Any],
    baseline_section: Optional[Dict[str, Any]],
    spec: Dict[str, Any],
    scale_mismatch: bool,
    baseline_scale: Optional[float],
) -> List[Check]:
    checks: List[Check] = []
    for metric, max_ratio in spec.get("compare", {}).items():
        check_name = f"compare:{metric}"
        if scale_mismatch:
            checks.append(
                Check(
                    section=name,
                    name=check_name,
                    category=SCALE_MISMATCH,
                    passed=True,
                    threshold=max_ratio,
                    message=(
                        f"baseline recorded at scale {baseline_scale!r}; "
                        "ratio not comparable"
                    ),
                )
            )
            continue
        value = _lookup(section, metric)
        if value is _MISSING or value is None:
            checks.append(
                Check(
                    section=name,
                    name=check_name,
                    category=MISSING_SECTION if value is _MISSING else SKIPPED,
                    passed=value is None,
                    threshold=max_ratio,
                    message=f"metric {metric!r} not recorded in the run",
                )
            )
            continue
        base = _MISSING if baseline_section is None else _lookup(baseline_section, metric)
        if base is _MISSING or base is None or float(base) <= 0.0:
            checks.append(
                Check(
                    section=name,
                    name=check_name,
                    category=SKIPPED,
                    passed=True,
                    value=float(value),
                    threshold=max_ratio,
                    message=f"baseline records no usable {metric!r}; ratio skipped",
                )
            )
            continue
        ratio = float(value) / float(base)
        ok = ratio <= max_ratio
        checks.append(
            Check(
                section=name,
                name=check_name,
                category=PASS if ok else REGRESSION,
                passed=ok,
                value=float(value),
                threshold=max_ratio,
                baseline_value=float(base),
                message=(
                    ""
                    if ok
                    else (
                        f"{metric} = {float(value):g} is {ratio:.2f}x the baseline "
                        f"{float(base):g} (limit {max_ratio:g}x)"
                    )
                ),
            )
        )
    return checks


def _run_info(record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "benchmark": record.get("benchmark"),
        "scale": record.get("scale"),
        "workers": record.get("workers"),
    }


def compare_to_baseline(
    record: Dict[str, Any],
    baseline: Union[BaselineRecord, Dict[str, Any], None],
    expectations: Optional[Dict[str, Any]] = None,
) -> ComparisonReport:
    """Full per-section comparison of one record against a baseline.

    Args:
        record: The fresh ``BENCH_runner.json``-shaped record.
        baseline: A :class:`~repro.runtime.runstore.BaselineRecord`, a raw
            record dict (e.g. a committed ``BENCH_runner.json``), or
            ``None`` for a baseline-free evaluation (ratio entries are
            then skipped).
        expectations: Normalized expectations;
            :data:`DEFAULT_EXPECTATIONS` when omitted.
    """
    if expectations is None:
        expectations = DEFAULT_EXPECTATIONS
    baseline_info: Optional[Dict[str, Any]] = None
    baseline_record: Optional[Dict[str, Any]] = None
    if isinstance(baseline, BaselineRecord):
        baseline_record = baseline.record
        baseline_info = {
            "name": baseline.name,
            "run_id": baseline.run_id,
            "scale": baseline.scale,
            "created_at": baseline.created_at,
        }
    elif baseline is not None:
        baseline_record = baseline
        baseline_info = {"name": None, "scale": baseline.get("scale")}

    scale = record.get("scale")
    baseline_scale = None if baseline_record is None else baseline_record.get("scale")
    scale_mismatch = (
        baseline_record is not None
        and scale is not None
        and baseline_scale is not None
        and scale != baseline_scale
    )

    checks = evaluate_expectations(record, expectations)
    if baseline_record is not None:
        sections = record_sections(record)
        baseline_sections = record_sections(baseline_record)
        for name, spec in expectations.get("sections", {}).items():
            section = sections.get(name)
            if section is None or not spec.get("compare"):
                continue  # the missing-section check is already filed
            checks.extend(
                _ratio_checks(
                    name,
                    section,
                    baseline_sections.get(name),
                    spec,
                    scale_mismatch,
                    baseline_scale,
                )
            )
    return ComparisonReport(
        checks=checks,
        run=_run_info(record),
        baseline=baseline_info,
        scale_mismatch=scale_mismatch,
    )


def snapshot_baseline(
    store: RunStore, name: str, run_id: Optional[int] = None
) -> BaselineRecord:
    """Freeze a recorded run as the named baseline (store passthrough)."""
    return store.snapshot_baseline(name, run_id=run_id)


# -------------------------------------------------------------------- trends


def detect_trends(
    store: RunStore,
    expectations: Optional[Dict[str, Any]] = None,
    window: Optional[int] = None,
    min_drift: Optional[float] = None,
) -> List[Trend]:
    """Flag metrics drifting monotonically worse across the last N runs.

    Every ``compare``/``max`` metric in the expectations (the
    higher-is-worse ones: section times, peak ratios) is scanned over its
    last ``window`` recorded values; a trend is flagged when each run was
    strictly worse than the one before and the total drift reached
    ``min_drift`` -- the slow-boil regression each individual 2x gate
    waves through.
    """
    if expectations is None:
        expectations = DEFAULT_EXPECTATIONS
    trend_config = expectations.get("trends", DEFAULT_EXPECTATIONS["trends"])
    if window is None:
        window = int(trend_config.get("window", 5))
    if min_drift is None:
        min_drift = float(trend_config.get("min_drift", 1.1))
    trends: List[Trend] = []
    for name, spec in expectations.get("sections", {}).items():
        metrics = set(spec.get("compare", {})) | set(spec.get("max", {}))
        for metric in sorted(metrics):
            history = store.metric_history(name, metric, limit=window)
            if len(history) < window:
                continue
            values = [value for _, value in history]
            if values[0] <= 0.0:
                continue
            rising = all(later > earlier for earlier, later in zip(values, values[1:]))
            drift = values[-1] / values[0]
            if rising and drift >= min_drift:
                trends.append(
                    Trend(
                        section=name,
                        metric=metric,
                        run_ids=tuple(run_id for run_id, _ in history),
                        values=tuple(values),
                        drift=round(drift, 3),
                    )
                )
    return trends


# ---------------------------------------------------------------- rendering


def _verdict_line(report: ComparisonReport) -> str:
    if report.passed:
        note = " (scale mismatch: ratios skipped)" if report.scale_mismatch else ""
        return f"verdict: PASS{note}"
    counts = report.categories()
    summary = ", ".join(f"{category}: {count}" for category, count in sorted(counts.items()))
    return f"verdict: FAIL ({summary})"


def format_comparison_report(report: ComparisonReport) -> str:
    """Human-readable multi-line comparison report."""
    lines: List[str] = []
    baseline = report.baseline
    if baseline is None:
        against = "no baseline (absolute expectations only)"
    elif baseline.get("name"):
        against = (
            f"baseline {baseline['name']!r} (run {baseline.get('run_id')}, "
            f"scale {baseline.get('scale')})"
        )
    else:
        against = f"baseline record (scale {baseline.get('scale')})"
    lines.append(f"Bench comparison: run at scale {report.run.get('scale')} vs {against}")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        if check.category == SKIPPED:
            status = "SKIP"
        elif check.category == SCALE_MISMATCH:
            status = "SCALE"
        detail = check.message
        if not detail and check.value is not None:
            if check.baseline_value is not None:
                detail = (
                    f"{check.value:g} vs baseline {check.baseline_value:g} "
                    f"(limit {check.threshold:g}x)"
                )
            elif check.threshold is not None:
                detail = f"{check.value:g} (bound {check.threshold:g})"
        lines.append(f"  [{status}] {check.section} {check.name}: {detail}".rstrip(": "))
    lines.append(_verdict_line(report))
    return "\n".join(lines)


def format_comparison_markdown(report: ComparisonReport) -> str:
    """GitHub-flavoured markdown rendering (for ``$GITHUB_STEP_SUMMARY``)."""
    lines = ["## Bench comparison", ""]
    status = "✅ PASS" if report.passed else "❌ FAIL"
    if report.scale_mismatch:
        status += " (scale mismatch: ratio checks skipped)"
    baseline = report.baseline or {}
    lines.append(
        f"**{status}** — run at scale `{report.run.get('scale')}` vs baseline "
        f"`{baseline.get('name') or 'record'}` at scale `{baseline.get('scale')}`"
        if report.baseline is not None
        else f"**{status}** — absolute expectations only (no baseline)"
    )
    lines.append("")
    lines.append("| status | section | check | value | baseline | limit | category |")
    lines.append("|---|---|---|---|---|---|---|")

    def cell(value: Optional[float]) -> str:
        return "" if value is None else f"{value:g}"

    for check in report.checks:
        icon = "✅" if check.passed else "❌"
        if check.category in (SKIPPED, SCALE_MISMATCH):
            icon = "⏭️"
        lines.append(
            f"| {icon} | {check.section} | `{check.name}` | {cell(check.value)} "
            f"| {cell(check.baseline_value)} | {cell(check.threshold)} "
            f"| {check.category} |"
        )
    return "\n".join(lines)


#: (section, metric) columns of the history tables, in display order.
HISTORY_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("runner", "cold_serial_s"),
    ("costing", "batch_s"),
    ("spmu", "array_s"),
    ("formats", "batch_s"),
    ("chunked", "chunked_s"),
)


def history_rows(runs: Sequence[Any]) -> List[Dict[str, Any]]:
    """Flatten stored runs into the history table's row dicts (oldest last)."""
    rows = []
    for run in runs:
        sections = record_sections(run.record)
        row: Dict[str, Any] = {
            "id": run.id,
            "created_at": run.created_at,
            "scale": run.scale,
            "workers": run.workers,
            "label": run.label,
            "fingerprint": run.fingerprint[:12],
        }
        for section, metric in HISTORY_COLUMNS:
            value = _lookup(sections.get(section, {}), metric)
            row[f"{section}.{metric}"] = None if value is _MISSING else value
        rows.append(row)
    return rows


def format_history(runs: Sequence[Any], markdown: bool = False) -> str:
    """Render recent runs as a text or markdown table, newest first."""
    rows = history_rows(runs)
    headers = ["run", "created", "scale", "fingerprint"] + [
        f"{section}.{metric}" for section, metric in HISTORY_COLUMNS
    ]
    table: List[List[str]] = []
    for row in rows:
        cells = [str(row["id"]), str(row["created_at"]), f"{row['scale']}", row["fingerprint"]]
        for section, metric in HISTORY_COLUMNS:
            value = row[f"{section}.{metric}"]
            cells.append("-" if value is None else f"{value:g}")
        table.append(cells)
    if markdown:
        lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
        lines += ["| " + " | ".join(cells) + " |" for cells in table]
        return "\n".join(lines)
    widths = [
        max(len(headers[i]), *(len(cells[i]) for cells in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(header.ljust(width) for header, width in zip(headers, widths))]
    for cells in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)))
    return "\n".join(lines)


def format_trends(trends: Sequence[Trend], markdown: bool = False) -> str:
    """Render detected trends (or an all-clear line)."""
    if not trends:
        return "no monotonic drift detected" if not markdown else "_No monotonic drift detected._"
    if markdown:
        lines = [
            "| section | metric | drift | runs | values |",
            "|---|---|---|---|---|",
        ]
        for trend in trends:
            values = ", ".join(f"{value:g}" for value in trend.values)
            runs = ", ".join(str(run_id) for run_id in trend.run_ids)
            lines.append(
                f"| {trend.section} | `{trend.metric}` | {trend.drift:g}x | {runs} | {values} |"
            )
        return "\n".join(lines)
    lines = []
    for trend in trends:
        values = " -> ".join(f"{value:g}" for value in trend.values)
        lines.append(
            f"DRIFT {trend.section}.{trend.metric}: {trend.drift:g}x over runs "
            f"{trend.run_ids[0]}..{trend.run_ids[-1]} ({values})"
        )
    return "\n".join(lines)

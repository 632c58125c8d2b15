"""Load-test reports: build, validate, format, persist.

One report shape serves every consumer: the CLI prints it as a table, the CI
smoke job validates it, the soak harness dumps it as JSON next to the other
artefacts under ``benchmarks/results/``.  The report embeds the sampler's
stream digest, so two runs with the same seed can be proven to have replayed
byte-identical traffic (the acceptance criterion for determinism).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

REPORT_VERSION = 1

#: The latency summary percentiles every report carries.
PERCENTILES = (50.0, 95.0, 99.0)


def server_metrics_delta(before: dict, after: dict) -> dict:
    """Counter deltas (and after-the-run gauges) between two ``/v1/metrics``
    snapshots taken around the measure phase.

    The counters say what the *server* did for this load — requests answered,
    samples scored, cache hits, coalesced batches, tenant sheds — which the
    client-side latency numbers cannot distinguish (e.g. a 100%
    cache-hit soak and a real scoring soak look identical from outside).
    """

    def totals(snapshot: dict) -> dict:
        out = {
            "requests": 0,
            "samples": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "batches": 0,
        }
        for model in snapshot.get("models", {}).values():
            out["requests"] += model.get("requests", 0)
            out["samples"] += model.get("samples", 0)
            out["errors"] += model.get("errors", 0)
            cache = model.get("cache", {})
            out["cache_hits"] += cache.get("hits", 0)
            out["cache_misses"] += cache.get("misses", 0)
            out["batches"] += model.get("batches", 0)
        return out

    def tenant_totals(snapshot: dict) -> dict:
        out = {"tenant_rate_limited": 0, "tenant_quota_exceeded": 0}
        tenants = (snapshot.get("tenancy") or {}).get("tenants", {})
        for state in tenants.values():
            out["tenant_rate_limited"] += state.get("rate_limited", 0)
            out["tenant_quota_exceeded"] += state.get("quota_exceeded", 0)
        return out

    first, last = totals(before), totals(after)
    delta = {key: last[key] - first[key] for key in last}
    if "tenancy" in after:
        first_t, last_t = tenant_totals(before), tenant_totals(after)
        delta.update({key: last_t[key] - first_t[key] for key in last_t})
    gauges = {}
    for name, scheduler in after.get("schedulers", {}).items():
        gauges[name] = {"queue_depth": scheduler.get("queue_depth", 0)}
    if gauges:
        delta["queue_depth_after"] = gauges
    return delta


def build_report(
    target: dict,
    traffic: dict,
    sampler,
    num_requests: int,
    warmup_requests: int,
    warmup_errors: int,
    latencies: List[float],
    errors: int,
    duration_seconds: float,
    server_metrics: Optional[dict] = None,
    errors_by_status: Optional[dict] = None,
    errors_by_code: Optional[dict] = None,
    untyped_errors: int = 0,
    deadline_violations: int = 0,
    retries: int = 0,
    retries_by_status: Optional[dict] = None,
    retry_policy: Optional[dict] = None,
    slo: Optional[dict] = None,
    exemplars: Optional[List[dict]] = None,
) -> dict:
    """Assemble the JSON-ready report dictionary from one measure phase."""
    latency_array = np.asarray(latencies, dtype=np.float64)
    completed = int(latency_array.size)
    summary = {"count": completed, "mean_ms": 0.0, "max_ms": 0.0}
    for percentile in PERCENTILES:
        summary[f"p{percentile:.0f}_ms"] = 0.0
    if completed:
        summary["mean_ms"] = float(latency_array.mean() * 1e3)
        summary["max_ms"] = float(latency_array.max() * 1e3)
        for percentile in PERCENTILES:
            summary[f"p{percentile:.0f}_ms"] = float(
                np.percentile(latency_array, percentile) * 1e3
            )
    report = {
        "report_version": REPORT_VERSION,
        "config": {
            "target": target,
            "traffic": traffic,
            "dataset": sampler.dataset,
            "profile": sampler.profile,
            "split": sampler.split,
            "seed": sampler.seed,
            "num_requests": int(num_requests),
            "warmup_requests": int(warmup_requests),
        },
        "stream_digest": sampler.digest(warmup_requests + num_requests),
        "results": {
            "completed": completed,
            "errors": int(errors),
            "warmup_errors": int(warmup_errors),
            "duration_seconds": float(duration_seconds),
            "throughput_rps": (
                completed / duration_seconds if duration_seconds > 0 else 0.0
            ),
            "latency_ms": summary,
        },
    }
    total = completed + int(errors)
    report["resilience"] = {
        # Availability is the fraction of measured requests that got a
        # successful answer; every failure that counts against it must be a
        # typed 429/503/504, never a hang or an untyped transport error.
        "availability": completed / total if total else 0.0,
        "errors_by_status": dict(
            sorted((errors_by_status or {}).items(), key=lambda kv: kv[0])
        ),
        "errors_by_code": dict(
            sorted((errors_by_code or {}).items(), key=lambda kv: kv[0])
        ),
        "untyped_errors": int(untyped_errors),
        "deadline_violations": int(deadline_violations),
        "retries": int(retries),
        "retries_by_status": dict(
            sorted((retries_by_status or {}).items(), key=lambda kv: kv[0])
        ),
    }
    if retry_policy is not None:
        report["config"]["retry_policy"] = retry_policy
    models = getattr(sampler, "models", None)
    if models is not None:
        report["config"]["models"] = len(models)
        report["config"]["zipf_s"] = sampler.zipf_s
    if server_metrics is not None:
        report["server_metrics_delta"] = server_metrics
    if slo is not None:
        # The server's end-of-run SLO snapshot: per-tenant verdicts, budget
        # remaining, burn rates.  Cumulative (not a delta) — the budget is a
        # property of the whole serving window, not of this soak alone.
        report["slo"] = slo
    if exemplars is not None:
        report["exemplars"] = exemplars
    return report


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* is well-formed and non-degenerate.

    This is the CI smoke assertion: every expected key present, a non-zero
    throughput, monotone percentiles, and no failed requests.
    """
    for key in ("report_version", "config", "stream_digest", "results"):
        if key not in report:
            raise ValueError(f"report is missing the {key!r} block")
    results = report["results"]
    for key in ("completed", "errors", "duration_seconds", "throughput_rps"):
        if key not in results:
            raise ValueError(f"report results are missing {key!r}")
    if results["completed"] < 1:
        raise ValueError("report recorded no completed requests")
    if results["errors"]:
        raise ValueError(f"report recorded {results['errors']} failed requests")
    if not results["throughput_rps"] > 0:
        raise ValueError(f"throughput is {results['throughput_rps']!r}, expected > 0")
    latency = results.get("latency_ms", {})
    points = [latency.get(f"p{p:.0f}_ms") for p in PERCENTILES]
    if any(value is None for value in points):
        raise ValueError(f"latency summary is missing percentiles: {latency}")
    if not all(earlier <= later for earlier, later in zip(points, points[1:])):
        raise ValueError(f"latency percentiles are not monotone: {points}")
    if not len(report["stream_digest"]) == 64:
        raise ValueError("stream digest is not a sha256 hex string")


#: Verdicts the SLO engine may hand a tenant.
SLO_VERDICTS = frozenset({"ok", "at_risk", "breached"})


def validate_slo_report(report: dict, require_exemplar: bool = False) -> None:
    """Raise ``ValueError`` unless the soak's SLO verdict block is well-formed:
    at least one tenant evaluated, every verdict one of
    ``ok``/``at_risk``/``breached``, budgets in ``[0, 1]``, burn rates
    non-negative, and latency percentiles monotone where present.

    With ``require_exemplar`` the report must also carry at least one trace
    exemplar (a traced soak whose histograms captured no ``trace_id`` means
    the exemplar plumbing is broken) — this is the CI SLO-smoke assertion.
    """
    slo = report.get("slo")
    if slo is None:
        raise ValueError("report has no slo block")
    tenants = slo.get("tenants") or {}
    if not tenants:
        raise ValueError("slo block evaluated no tenants")
    for name, tenant in tenants.items():
        verdict = tenant.get("verdict")
        if verdict not in SLO_VERDICTS:
            raise ValueError(f"tenant {name!r} has bad verdict {verdict!r}")
        budget = tenant.get("budget_remaining")
        if budget is None or not 0.0 <= budget <= 1.0:
            raise ValueError(
                f"tenant {name!r} budget_remaining {budget!r} outside [0, 1]"
            )
        if tenant.get("requests", 0) < 1:
            raise ValueError(f"tenant {name!r} was evaluated with no requests")
        for window in ("fast", "slow"):
            burn = tenant.get("windows", {}).get(window, {}).get("burn_rate")
            if burn is None or burn < 0:
                raise ValueError(
                    f"tenant {name!r} {window}-window burn rate {burn!r} "
                    "is missing or negative"
                )
        latency = tenant.get("latency") or {}
        points = [latency.get(f"p{p:.0f}_ms") for p in PERCENTILES]
        if all(value is not None for value in points) and not all(
            earlier <= later for earlier, later in zip(points, points[1:])
        ):
            raise ValueError(
                f"tenant {name!r} latency percentiles are not monotone: {points}"
            )
    if require_exemplar:
        exemplars = report.get("exemplars") or []
        if not exemplars:
            raise ValueError(
                "traced soak captured no latency exemplars — no histogram "
                "bucket recorded a trace_id"
            )
        for exemplar in exemplars:
            if not exemplar.get("trace_id"):
                raise ValueError(f"exemplar without a trace_id: {exemplar}")


def format_report(report: dict) -> str:
    """Human-readable summary table of one report."""
    from repro.eval.tables import format_table

    config = report["config"]
    results = report["results"]
    latency = results["latency_ms"]
    traffic = config["traffic"]
    load = (
        f"open @ {traffic['rate_rps']:g} rps"
        if traffic["mode"] == "open"
        else f"closed x{traffic['concurrency']}"
    )
    rows = [
        ["target", config["target"]["kind"]],
        ["traffic", load],
        ["dataset", f"{config['dataset']} ({config['profile']}/{config['split']})"],
        ["requests", f"{results['completed']} ok, {results['errors']} errors"],
        ["duration", f"{results['duration_seconds']:.2f} s"],
        ["throughput", f"{results['throughput_rps']:.1f} req/s"],
        ["latency p50", f"{latency['p50_ms']:.2f} ms"],
        ["latency p95", f"{latency['p95_ms']:.2f} ms"],
        ["latency p99", f"{latency['p99_ms']:.2f} ms"],
        ["latency max", f"{latency['max_ms']:.2f} ms"],
        ["stream digest", report["stream_digest"][:16] + "…"],
    ]
    resilience = report.get("resilience")
    if resilience is not None and results["errors"]:
        rows.append(["availability", f"{resilience['availability']:.2%}"])
        breakdown = ", ".join(
            f"{status}×{count}"
            for status, count in resilience["errors_by_status"].items()
        )
        rows.append(["error statuses", breakdown or "none"])
        codes = ", ".join(
            f"{code}×{count}"
            for code, count in resilience["errors_by_code"].items()
        )
        rows.append(["error codes", codes or "none"])
        rows.append(["untyped errors", str(resilience["untyped_errors"])])
        rows.append(
            ["deadline violations", str(resilience["deadline_violations"])]
        )
    if resilience is not None and resilience.get("retries"):
        breakdown = ", ".join(
            f"{status}×{count}"
            for status, count in resilience["retries_by_status"].items()
        )
        rows.append(["client retries", f"{resilience['retries']} ({breakdown})"])
    delta = report.get("server_metrics_delta")
    if delta is not None:
        lookups = delta["cache_hits"] + delta["cache_misses"]
        hit_rate = delta["cache_hits"] / lookups if lookups else 0.0
        rows.append(["server requests", f"+{delta['requests']}"])
        rows.append(["server samples", f"+{delta['samples']}"])
        rows.append(
            ["server cache", f"+{delta['cache_hits']} hits ({hit_rate:.0%})"]
        )
        rows.append(["server batches", f"+{delta['batches']}"])
        shed = {
            name: delta[name]
            for name in ("tenant_rate_limited", "tenant_quota_exceeded")
            if delta.get(name)
        }
        if shed:
            rows.append(
                [
                    "tenant sheds",
                    ", ".join(f"{name}+{count}" for name, count in shed.items()),
                ]
            )
    slo = report.get("slo")
    if slo is not None:
        for name in sorted(slo.get("tenants", {})):
            tenant = slo["tenants"][name]
            windows = tenant.get("windows", {})
            rows.append(
                [
                    f"slo {name}",
                    f"{tenant.get('verdict', '?')} "
                    f"(budget {tenant.get('budget_remaining', 0):.3f}, "
                    f"burn {windows.get('fast', {}).get('burn_rate', 0):.1f}/"
                    f"{windows.get('slow', {}).get('burn_rate', 0):.1f})",
                ]
            )
    exemplars = report.get("exemplars")
    if exemplars:
        rows.append(
            [
                "trace exemplars",
                f"{len(exemplars)} (slowest {exemplars[0]['trace_id']} "
                f"@ {exemplars[0]['value_ms']:.2f} ms)",
            ]
        )
    title = f"Load test (seed={config['seed']})"
    return format_table(["metric", "value"], rows, title=title)


def write_report(path: Union[str, Path], report: dict) -> Path:
    """Write *report* as indented JSON (the ``benchmarks/results`` format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


__all__ = [
    "PERCENTILES",
    "REPORT_VERSION",
    "SLO_VERDICTS",
    "build_report",
    "format_report",
    "server_metrics_delta",
    "validate_report",
    "validate_slo_report",
    "write_report",
]

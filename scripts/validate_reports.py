#!/usr/bin/env python3
"""Schema validator for the repo's versioned JSON reports.

Validates any mix of report files against the shapes documented in
docs/report-schemas.md, dispatching on each document's `schema` tag:

  cliffhanger-loadgen/v1          single loadgen run
  cliffhanger-stats/v1            scraped server telemetry document
  cliffhanger-scenario/v1         one resilience scenario run
  cliffhanger-scenario-matrix/v1  a matrix of scenario runs
  cliffhanger-hotkey-sweep/v1     hot-key mitigation on/off A/B sweep

Usage:
  python3 scripts/validate_reports.py FILE [FILE ...]

Fails fast: the first file that does not match its schema stops the run
with a non-zero exit, printing the offending file and the first mismatch —
both as a plain `SCHEMA VALIDATION FAILED` line and as a GitHub `::error`
annotation so the message surfaces in the workflow UI, not just the log.
"""

import json
import sys


class Mismatch(Exception):
    """First schema mismatch found, with a path into the document."""

    def __init__(self, where, message):
        super().__init__(f"{where}: {message}")


def require(cond, where, message):
    if not cond:
        raise Mismatch(where, message)


def check_summary(s, where):
    """A telemetry::LatencySummary: quantiles present and ordered."""
    for field in ("count", "p50_us", "p99_us", "p999_us", "max_us"):
        require(field in s, where, f"latency summary lacks {field}")
    require(
        s["count"] == 0 or s["p50_us"] <= s["p999_us"] <= s["max_us"] * 1.01,
        where,
        f"latency quantiles out of order: {s}",
    )


def check_mrc(mrc, where):
    """The live-profiled miss-ratio-curve section (stats documents that
    carry one; absent/null means profiling was off)."""
    require("sample_shift" in mrc, where, "mrc lacks sample_shift")
    require("sample_rate" in mrc, where, "mrc lacks sample_rate")
    require(
        0.0 < mrc["sample_rate"] <= 1.0,
        where,
        f"mrc sample_rate out of range: {mrc['sample_rate']}",
    )
    for t in mrc.get("tenants", []):
        tw = f"{where}/tenant={t.get('name')}"
        require(t.get("name"), tw, "mrc tenant without a name")
        require(t["sampled"] <= t["offered"], tw, "sampled exceeds offered GETs")
        for p in t.get("points", []):
            require(
                p["scale"] > 0 and p["items"] >= 1,
                tw,
                f"degenerate mrc point {p}",
            )
            require(
                0.0 <= p["hit_rate"] <= 1.0,
                tw,
                f"mrc hit_rate out of range: {p}",
            )


def check_history(history, where):
    """The windowed counter-rate time series."""
    require(history.get("interval_us", 0) > 0, where, "history lacks interval_us")
    for w in history.get("windows", []):
        ww = f"{where}/window={w.get('unix_us')}"
        require(w.get("seconds", 0) > 0, ww, "window spans no time")
        for t in w.get("tenants", []):
            require(t.get("name"), ww, "history tenant without a name")
            require(t["ops_per_sec"] >= 0, ww, "negative ops rate")
            hr = t.get("hit_rate")
            require(
                hr is None or 0.0 <= hr <= 1.0,
                ww,
                f"history hit_rate out of range: {hr}",
            )


def check_allocator(allocator, where):
    """The predicted-vs-realized allocator introspection join."""
    require(
        allocator.get("window_us", 0) > 0, where, "allocator lacks window_us"
    )
    for tr in allocator.get("transfers", []):
        tw = f"{where}/transfer={tr.get('seq')}"
        require(tr.get("kind") in ("shard", "tenant"), tw, f"bad kind {tr.get('kind')!r}")
        require(tr.get("tenant"), tw, "transfer without a tenant")
        require(tr.get("bytes", 0) > 0, tw, "transfer moved no bytes")
        if tr.get("kind") == "tenant":
            require(tr.get("donor"), tw, "tenant transfer without a donor")
        for side in ("hit_rate_before", "hit_rate_after"):
            hr = tr.get(side)
            require(
                hr is None or 0.0 <= hr <= 1.0,
                tw,
                f"{side} out of range: {hr}",
            )


def check_stats(stats, where):
    require(
        stats.get("schema") == "cliffhanger-stats/v1",
        where,
        f"bad stats schema tag {stats.get('schema')!r}",
    )
    for section in ("counters", "capacity", "service_latency", "tenants", "shards"):
        require(section in stats, where, f"missing section {section}")
    c = stats["counters"]
    require(
        c["get_hits"] + c["get_misses"] == c["cmd_get"],
        where,
        f"hit/miss accounting broken: {c}",
    )
    limit = stats["capacity"]["limit_maxbytes"]
    tenant_sum = sum(t["budget"] for t in stats["tenants"])
    require(
        tenant_sum == limit,
        where,
        f"tenant budgets sum to {tenant_sum}, limit_maxbytes is {limit}",
    )
    # Additive sections: assert their shape where the document carries them.
    if "server_start" in stats:
        require(
            stats["server_start"] <= stats["snapshot_unix_us"],
            where,
            "snapshot taken before the server started",
        )
    if "process" in stats:
        p = stats["process"]
        for key in (
            "rss_bytes",
            "items",
            "item_payload_bytes",
            "index_bytes",
            "queue_bytes",
            "shadow_bytes",
        ):
            require(key in p, where, f"process section without {key}")
        require(p["items"] == c["curr_items"], where, f"process.items vs counters: {p}")
        require(
            p["item_payload_bytes"] <= c["bytes"],
            where,
            f"payload bytes above accounted bytes: {p}",
        )
    if stats.get("mrc") is not None:
        check_mrc(stats["mrc"], f"{where}/mrc")
    if "history" in stats:
        check_history(stats["history"], f"{where}/history")
    if "allocator" in stats:
        check_allocator(stats["allocator"], f"{where}/allocator")


def check_load(r, where):
    require(
        r.get("schema") == "cliffhanger-loadgen/v1",
        where,
        f"bad schema tag {r.get('schema')!r}",
    )
    require(r["requests"] > 0 and r["elapsed_secs"] > 0, where, "empty run")
    require(r["throughput_rps"] > 0, where, "zero throughput")
    require(0.0 <= r["hit_rate"] <= 1.0, where, f"hit_rate {r['hit_rate']}")
    require(r["get_hits"] <= r["gets"], where, "more hits than gets")
    # Schema evolution is additive: only assert accreted fields where the
    # recording carries them.
    if "fills" in r:
        require(r["fills"] <= r["sets"], where, "fills must ride inside sets")
    for summary in ("latency", "get_latency", "set_latency", "fill_latency"):
        if summary in r:
            check_summary(r[summary], f"{where}/{summary}")
    for t in r.get("tenants", []):
        if "fills" in t:
            require(t["fills"] <= t["sets"], where, f"tenant {t['tenant']} fills > sets")
    if r.get("server_stats") is not None:
        check_stats(r["server_stats"], f"{where}/server_stats")


def check_scenario(r, where):
    require(
        r.get("schema") == "cliffhanger-scenario/v1",
        where,
        f"bad schema tag {r.get('schema')!r}",
    )
    for field in ("scenario", "scale", "phases", "invariants", "passed", "chaos"):
        require(field in r, where, f"missing field {field}")
    require(r["phases"], where, "scenario has no phases")
    for p in r["phases"]:
        pw = f"{where}/phase={p.get('name')}"
        require(p.get("name"), pw, "phase without a name")
        require(p["mode"] in ("open", "closed"), pw, f"bad mode {p.get('mode')!r}")
        require(p["requests"] > 0, pw, "phase completed no requests")
        require(p["throughput_rps"] > 0, pw, "zero throughput")
        check_summary(p["latency"], pw)
    require(r["invariants"], where, "scenario has no invariant verdicts")
    for v in r["invariants"]:
        vw = f"{where}/invariant={v.get('name')}"
        require(v.get("name"), vw, "verdict without a name")
        require("pass" in v and "detail" in v, vw, "verdict lacks pass/detail")
    require(
        r["passed"] == all(v["pass"] for v in r["invariants"]),
        where,
        "passed flag disagrees with the verdicts",
    )
    if r.get("server_stats") is not None:
        check_stats(r["server_stats"], f"{where}/server_stats")


def check_scenario_matrix(m, where):
    require(
        m.get("schema") == "cliffhanger-scenario-matrix/v1",
        where,
        f"bad schema tag {m.get('schema')!r}",
    )
    require(m.get("scenarios"), where, "matrix has no scenarios")
    for s in m["scenarios"]:
        check_scenario(s, f"{where}/{s.get('scenario')}")


def check_hotkey_sweep(hs, where):
    require(
        hs.get("schema") == "cliffhanger-hotkey-sweep/v1",
        where,
        f"bad schema tag {hs.get('schema')!r}",
    )
    require(hs.get("scenario") == "flash_crowd", where, "unexpected scenario")
    for side in ("off", "on"):
        arm = hs[side]
        aw = f"{where}/{side}"
        require(arm["mitigation"] == (side == "on"), aw, "mitigation flag disagrees")
        require(arm["errors"] == 0, aw, f"arm ran with errors: {arm['errors']}")
        require(
            arm["probe_stale_reads"] == 0 and arm["probe_reads"] > 0,
            aw,
            f"probe saw {arm['probe_stale_reads']} stale of {arm['probe_reads']} reads",
        )
        require(
            0.0 <= arm["remote_share"] <= 1.0,
            aw,
            f"remote_share out of range: {arm['remote_share']}",
        )
        check_scenario(arm["report"], f"{aw}/report")
    require(
        hs["on"]["replica_hits"] > 0 and hs["on"]["promotions"] > 0,
        f"{where}/on",
        "mitigation arm never promoted or served replicas",
    )
    require(
        hs["off"]["replica_hits"] == 0,
        f"{where}/off",
        "baseline arm served replica hits with the feature off",
    )
    c = hs["comparison"]
    require(
        c["spike_throughput_ratio"] > 0 and c["spike_p99_ratio"] > 0,
        f"{where}/comparison",
        f"degenerate comparison: {c}",
    )


DISPATCH = {
    "cliffhanger-loadgen/v1": check_load,
    "cliffhanger-stats/v1": check_stats,
    "cliffhanger-scenario/v1": check_scenario,
    "cliffhanger-scenario-matrix/v1": check_scenario_matrix,
    "cliffhanger-hotkey-sweep/v1": check_hotkey_sweep,
}


def validate_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Mismatch(path, f"not readable JSON: {e}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema in DISPATCH:
        DISPATCH[schema](doc, path)
    else:
        raise Mismatch(path, f"unrecognized document (schema tag {schema!r})")


def main(argv):
    if not argv:
        print("usage: validate_reports.py FILE [FILE ...]")
        return 1
    for path in argv:
        try:
            validate_file(path)
        except Mismatch as e:
            print(f"::error file={path}::schema validation failed: {e}")
            print(f"SCHEMA VALIDATION FAILED: {e}")
            return 1
        print(f"ok: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

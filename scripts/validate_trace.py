#!/usr/bin/env python3
"""Validator for obs/trace TraceSink output (Chrome trace-event JSON).

CI runs this on the small trace bench_serve_scale --trace writes, so a
malformed timeline fails the build instead of failing silently months
later in somebody's chrome://tracing tab. Checks:

  1. The file parses as JSON with a non-empty "traceEvents" list.
  2. Every event carries the trace-event required fields for its phase,
     with integer timestamps >= 0 (the simulated-cycle timebase) and
     non-negative durations.
  3. Per (pid, tid) track, timestamps of "X" (complete span) and "C"
     (counter) events are monotonically non-decreasing — the serve loop
     emits them in event order, so a violation means the sink reordered
     the timeline. Async "b"/"e" pairs and instants are exempt: the sink
     emits async opens at close time with their (earlier) open timestamp
     by design (see src/obs/trace.hpp).
  4. Every counter ("C") arg value is a non-negative integer — all of the
     sink's counter series (sched/load/wcache occupancy and the
     "node<i>:dram" contention tracks) count things that cannot go
     negative, so a negative sample means the arbiter bookkeeping
     underflowed.
  5. A trace that carries "contend" instants (a contention-enabled run)
     must also carry at least one "node<i>:dram" counter series —
     slowdown onsets without the matching node pressure track mean the
     sink dropped the NodeSample path.
  6. No two "X" (complete) events share an identity (pid, tid, batch,
     chunk ordinal): the same chunk retiring twice means the completion
     calendar re-fired a stale entry — exactly the bug its versioned keys
     exist to prevent.
  7. Async spans pair up in event order: every "b" is closed by exactly
     one later "e" with the same (cat, id), no "e" arrives without an
     open "b", no "b" re-opens a span that is still open, and no span is
     left open at the end. A lost or doubled preemption-gap close breaks
     this (the sink decides gap opens and closes at hook time).

With --metrics it validates an obs/metrics MetricsRegistry snapshot (the
--metrics-json file CI and check.sh write next to the trace) instead:

  1. The file parses as a JSON object holding exactly the "counters",
     "gauges" and "histograms" objects.
  2. Every counter and gauge value, and every histogram field, is an
     integer (the snapshot's determinism contract).
  3. Each histogram has exactly count/min/max/sum/p50/p90/p99, with
     min <= p50 <= p90 <= p99 <= max.
  4. When both exist, serve.latency_cycles.count equals serve.requests:
     one latency sample per served request.

Usage:
  scripts/validate_trace.py TRACE.json
  scripts/validate_trace.py --metrics METRICS.json
  scripts/validate_trace.py --self-test

Exit status: 0 = valid, 1 = invalid, 2 = usage error.
"""

import json
import sys


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def validate_doc(doc, path):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(f"{path} has no traceEvents")

    # Monotonicity cursors per (pid, tid) track, "X"/"C" phases only.
    last_ts = {}
    phases = {}
    counter_series = set()
    contend_instants = 0
    seen_complete_ids = set()
    open_async = set()  # (cat, id) of async spans opened, not yet closed
    async_pairs = 0
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            return fail(f"event {i} is not an object")
        ph = e.get("ph")
        if not isinstance(ph, str) or not ph:
            return fail(f"event {i} has no phase ('ph')")
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "M":  # metadata carries no timestamp
            continue
        ts = e.get("ts")
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            return fail(
                f"event {i} (ph '{ph}') has non-integer or negative "
                f"ts {ts!r} — the timebase is integer simulated cycles"
            )
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, int) or isinstance(dur, bool) or dur < 0:
                return fail(f"event {i} ('X' span) has bad dur {dur!r}")
            args = e.get("args")
            if isinstance(args, dict) and "batch" in args and "chunk" in args:
                # A multi-stage request reuses its id as the batch id of
                # every stage's batch, so stage (0 when absent — stage-0
                # spans omit the key) is part of the chunk's identity.
                ident = (e.get("pid"), e.get("tid"), args["batch"],
                         args["chunk"], args.get("stage", 0))
                if ident in seen_complete_ids:
                    return fail(
                        f"event {i} ('X' span) duplicates complete-event id "
                        f"pid={ident[0]} tid={ident[1]} batch={ident[2]} "
                        f"chunk={ident[3]} stage={ident[4]} "
                        "— the same chunk retired twice "
                        "(stale completion-calendar entry re-fired)"
                    )
                seen_complete_ids.add(ident)
        if ph == "C":
            name = e.get("name")
            if isinstance(name, str):
                counter_series.add(name)
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                return fail(f"event {i} ('C' counter) has no args")
            for key, value in args.items():
                if (not isinstance(value, int) or isinstance(value, bool)
                        or value < 0):
                    return fail(
                        f"event {i} ('C' counter '{name}') arg "
                        f"'{key}' is {value!r} — counter samples must be "
                        "non-negative integers"
                    )
        if ph in ("b", "e"):
            span = (e.get("cat"), e.get("id"))
            if ph == "b":
                if span in open_async:
                    return fail(
                        f"event {i} ('b') re-opens async span cat={span[0]} "
                        f"id={span[1]} before its 'e'"
                    )
                open_async.add(span)
            else:
                if span not in open_async:
                    return fail(
                        f"event {i} ('e') closes async span cat={span[0]} "
                        f"id={span[1]}, which is not open"
                    )
                open_async.remove(span)
                async_pairs += 1
        if ph == "i" and e.get("cat") == "contend":
            contend_instants += 1
        if ph in ("X", "C"):
            track = (e.get("pid"), e.get("tid"))
            prev = last_ts.get(track)
            if prev is not None and ts < prev:
                return fail(
                    f"event {i} (ph '{ph}', track pid={track[0]} "
                    f"tid={track[1]}) has ts {ts} < previous {prev} — "
                    "per-track timestamps must be monotone"
                )
            last_ts[track] = ts

    if open_async:
        cat, span_id = sorted(open_async, key=repr)[0]
        return fail(
            f"{len(open_async)} async span(s) never closed, e.g. cat={cat} "
            f"id={span_id}"
        )

    node_series = sorted(
        n for n in counter_series
        if n.startswith("node") and n.endswith(":dram")
    )
    if contend_instants and not node_series:
        return fail(
            f"{contend_instants} 'contend' instant(s) but no 'node<i>:dram' "
            "counter series — a contention-enabled run must publish its "
            "node pressure tracks"
        )

    summary = "  ".join(f"{ph}:{n}" for ph, n in sorted(phases.items()))
    extra = ""
    if node_series:
        extra = (
            f"; contention: {len(node_series)} node track(s), "
            f"{contend_instants} contend instant(s)"
        )
    print(
        f"validate_trace: OK: {len(events)} events on {len(last_ts)} "
        f"monotone tracks ({summary}), {async_pairs} async pairs{extra}"
    )
    return 0


METRIC_KINDS = ("counters", "gauges", "histograms")
HISTOGRAM_FIELDS = ("count", "min", "max", "sum", "p50", "p90", "p99")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def validate_metrics_doc(doc, path):
    if not isinstance(doc, dict) or sorted(doc) != sorted(METRIC_KINDS):
        keys = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        return fail(
            f"{path} must hold exactly the {', '.join(METRIC_KINDS)} "
            f"objects, got {keys}"
        )
    for kind in METRIC_KINDS:
        if not isinstance(doc[kind], dict):
            return fail(f"{path}: '{kind}' is not an object")
    for kind in ("counters", "gauges"):
        for name, value in doc[kind].items():
            if not _is_int(value):
                return fail(
                    f"{kind[:-1]} '{name}' is {value!r} — snapshot values "
                    "must be integers"
                )
    histograms = doc["histograms"]
    for name, h in histograms.items():
        if not isinstance(h, dict) or sorted(h) != sorted(HISTOGRAM_FIELDS):
            return fail(
                f"histogram '{name}' must have exactly "
                f"{'/'.join(HISTOGRAM_FIELDS)}"
            )
        for field in HISTOGRAM_FIELDS:
            if not _is_int(h[field]):
                return fail(
                    f"histogram '{name}' {field} is {h[field]!r} — snapshot "
                    "values must be integers"
                )
        if not h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
            return fail(
                f"histogram '{name}' breaks min <= p50 <= p90 <= p99 <= max"
            )
    requests = doc["counters"].get("serve.requests")
    latency = histograms.get("serve.latency_cycles")
    if (requests is not None and latency is not None
            and latency["count"] != requests):
        return fail(
            f"serve.latency_cycles.count {latency['count']} != "
            f"serve.requests {requests} — one latency sample per request"
        )
    print(
        f"validate_trace: OK: metrics snapshot with "
        f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
        f"{len(histograms)} histograms"
    )
    return 0


def validate(path, validator=validate_doc):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    return validator(doc, path)


# ---- self-test ----------------------------------------------------------


def _doc(events):
    return {"traceEvents": events}


def _span(ts=0, dur=10, pid=0, tid=0, batch=1, chunk=0, stage=None):
    args = {"batch": batch, "chunk": chunk, "m": 1, "size": 1, "final": 1}
    if stage is not None:  # successor-stage spans carry the stage index
        args["stage"] = stage
    return {
        "ph": "X", "pid": pid, "tid": tid, "ts": ts, "dur": dur,
        "cat": "exec", "name": f"b{batch}/c{chunk}",
        "args": args,
    }


def _counter(name="sched", ts=0, **args):
    return {"ph": "C", "pid": 3, "tid": 0, "ts": ts, "name": name,
            "args": args or {"ready": 0}}


def _async(ph, ts=0, cat="gap", span_id=1):
    return {"ph": ph, "pid": 1, "tid": 0, "ts": ts, "cat": cat,
            "id": span_id, "name": f"{cat} b{span_id}"}


def _contend(ts=0):
    return {"ph": "i", "s": "t", "pid": 1, "tid": 0, "ts": ts,
            "cat": "contend", "name": "contend n0",
            "args": {"node": 0, "demand": 2, "hop_cycles": 0}}


def _metrics(counters=None, histograms=None):
    latency = {"count": 2, "min": 5, "max": 9, "sum": 14, "p50": 5,
               "p90": 9, "p99": 9}
    return {
        "counters": {"serve.requests": 2} if counters is None else counters,
        "gauges": {"serve.makespan_cycles": 9},
        "histograms": ({"serve.latency_cycles": latency}
                       if histograms is None else histograms),
    }


def self_test():
    """Unit-style checks of the validator itself (CI's format job runs
    this): good traces and snapshots pass, and each hardening check fires
    on the malformed shape it exists for."""
    import contextlib
    import io

    cases = [
        ("minimal valid trace passes",
         _doc([_span(), _counter()]), 0, None),
        ("monotone violation fails",
         _doc([_span(ts=100, batch=1), _span(ts=50, batch=2)]), 1,
         "monotone"),
        ("negative counter arg fails",
         _doc([_counter("load", busy_devices=-1)]), 1, "non-negative"),
        ("counter without args fails",
         _doc([{"ph": "C", "pid": 3, "tid": 0, "ts": 0, "name": "x"}]), 1,
         "no args"),
        ("duplicate complete-event id fails",
         _doc([_span(ts=0, batch=7, chunk=0), _span(ts=5, batch=7, chunk=0)]),
         1, "retired twice"),
        ("same batch, later chunk passes",
         _doc([_span(ts=0, batch=7, chunk=0), _span(ts=5, batch=7, chunk=1)]),
         0, None),
        ("same batch id, successor stage passes",
         _doc([_span(ts=0, batch=7, chunk=0),
               _span(ts=5, batch=7, chunk=0, stage=1)]), 0, None),
        ("duplicate successor-stage chunk fails",
         _doc([_span(ts=0, batch=7, chunk=0, stage=1),
               _span(ts=5, batch=7, chunk=0, stage=1)]), 1,
         "retired twice"),
        ("contend instants without node tracks fail",
         _doc([_contend()]), 1, "node<i>:dram"),
        ("contention-enabled trace passes",
         _doc([_contend(),
               _counter("node0:dram", ts=0, streams=2, inflight_bytes=64)]),
         0, None),
        ("paired async spans pass, an id re-used after its close too",
         _doc([_async("b", ts=5), _async("b", ts=0, cat="form"),
               _async("e", ts=3, cat="form"), _async("e", ts=9),
               _async("b", ts=12), _async("e", ts=20)]), 0, None),
        ("unclosed async span fails",
         _doc([_async("b", ts=5)]), 1, "never closed"),
        ("stray async close fails",
         _doc([_async("e", ts=5)]), 1, "not open"),
        ("re-opened async span fails",
         _doc([_async("b", ts=5), _async("b", ts=8), _async("e", ts=9)]), 1,
         "re-opens"),
    ]
    cases = [(label, validate_doc, doc, code, msg)
             for label, doc, code, msg in cases]
    unordered = {"count": 2, "min": 5, "max": 9, "sum": 14, "p50": 9,
                 "p90": 5, "p99": 9}
    cases += [
        ("minimal valid snapshot passes", validate_metrics_doc,
         _metrics(), 0, None),
        ("non-integer value fails", validate_metrics_doc,
         _metrics(counters={"serve.requests": 2.5}), 1, "integers"),
        ("missing kind fails", validate_metrics_doc,
         {"counters": {}, "gauges": {}}, 1, "exactly"),
        ("latency count mismatch fails", validate_metrics_doc,
         _metrics(counters={"serve.requests": 3}), 1, "one latency sample"),
        ("unordered percentiles fail", validate_metrics_doc,
         _metrics(histograms={"h": unordered}), 1, "p50 <= p90"),
    ]
    ok = True
    for label, validator, doc, expect_exit, expect_msg in cases:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = validator(doc, "<self-test>")
        problems = []
        if code != expect_exit:
            problems.append(f"exit {code}, expected {expect_exit}")
        if expect_msg and expect_msg not in err.getvalue():
            problems.append(f"stderr lacks {expect_msg!r}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"  self-test: {label}: {status}")
        ok &= not problems
    print("self-test:", "OK" if ok else "FAIL")
    return 0 if ok else 1


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    if len(sys.argv) == 3 and sys.argv[1] == "--metrics":
        return validate(sys.argv[2], validate_metrics_doc)
    if len(sys.argv) != 2 or sys.argv[1].startswith("--"):
        print("usage: validate_trace.py TRACE.json | --metrics METRICS.json"
              " | --self-test", file=sys.stderr)
        return 2
    return validate(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json perf trajectory.

Compares freshly produced BENCH_{coldpath,throughput,server}.json
against the checked-in baselines at the repo root and fails the job on
a real regression:

  * any boolean gate that is true in the baseline but false in (or
    missing from) the fresh run (bit_identical, warm_bit_identical,
    and the cross-process identity gates — see BOOLEAN_GATES) FAILS
    immediately — these are correctness gates, not timings;
  * each row's blocks_per_sec is compared *normalized* to the bench's
    serial reference row (coldpath: serial_fresh, throughput: serial,
    server: serial), so a faster or slower CI machine shifts every row
    together and only genuine relative regressions trip the gate.
    A normalized drop > --fail-tol (default 25%) FAILS, > --warn-tol
    (default 10%) warns;
  * with --absolute the raw blocks_per_sec values are gated too — use
    this only when baseline and fresh numbers come from the same
    machine (e.g. a dedicated perf host), never on shared runners;
  * row timings are compared only between like runs: when quick_mode,
    or the host record's hw_threads or affinity (BenchReport writes
    {hw_threads, cpu_model, affinity}; a report without one matches
    nothing), differs between baseline and fresh run, the rows are
    skipped with a warning instead of silently normalized. The boolean
    gates always apply.

Override knob: FACILE_BENCH_GATE=off skips the gate entirely (exit 0),
FACILE_BENCH_GATE=warn reports but never fails. Both are meant for
emergencies (e.g. landing a PR that knowingly rebases the perf
trajectory together with new baselines), not for routine use.

--self-test proves the gate actually gates: it first runs the real
comparison (which must pass), then injects a synthetic 50% regression
into the fresh numbers in memory and asserts the comparison fails
(benches whose baseline comes from another host are checked against
their own fresh run instead). Finally it replays the injected run
against a copy of the fresh run that claims another host, with one
boolean gate flipped, and asserts that the row timings are skipped
with a warning while the flipped gate still fails.

--rebaseline writes baselines from several fresh runs of the same host
(--fresh DIR DIR ...) into --baseline: every row is its floor over the
runs, normalized to the reference row and scaled by the reference's
median, so each of those runs passes against it. On a shared host the
rows of back-to-back runs spread far wider than the 25% band, and a
central value (a single run or a per-row median) fails its own sibling
runs; the floor widens the band by the measured spread instead. Other
numbers are per-key medians, and a boolean is true only when every run
had it true.

Missing fresh files are skipped with a note (quick CI runs do not
produce every bench); a missing baseline for a produced bench fails.
--require NAME[,NAME...] turns the skip into a failure for the listed
benches: a CI job that is supposed to produce BENCH_server.json must
not silently pass because the bench crashed before writing it.
"""

import argparse
import copy
import json
import os
import statistics
import sys

BENCHES = ["coldpath", "throughput", "server"]

# The within-file serial reference row each bench's rows are
# normalized against.
REFERENCE_ROW = {
    "coldpath": "serial_fresh",
    "throughput": "serial",
    "server": "serial",
}

# Boolean scalars that must never flip true -> false (and, once true
# in the baseline, must keep appearing in fresh runs — a bench that
# silently stops producing a gate must not pass). Only deterministic
# gates belong here: a timing threshold hovers at its cutoff on noisy
# runners and is covered by the tolerance band on its rows instead.
BOOLEAN_GATES = [
    "bit_identical",
    "warm_bit_identical",
    "v2_first_predict_identical",
]


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# Host-record fields that must match for row timings to be comparable.
# cpu_model is recorded for the reader but not compared: the same
# model can sit behind different core counts and pinning.
HOST_KEYS = ["hw_threads", "affinity"]


def incomparable(base, fresh):
    """Why row timings of these two reports cannot be compared, or None."""
    if bool(base.get("quick_mode")) != bool(fresh.get("quick_mode")):
        return ("quick_mode differs between baseline and fresh run "
                "(run the gate on full-suite numbers)")
    base_host, fresh_host = base.get("host") or {}, fresh.get("host") or {}
    for key in HOST_KEYS:
        if (base_host.get(key) is None
                or base_host.get(key) != fresh_host.get(key)):
            return (f"host {key} differs between baseline "
                    f"({base_host.get(key)!r}) and fresh run "
                    f"({fresh_host.get(key)!r}) (re-baseline on this "
                    f"host to compare timings)")
    return None


def rows_by_label(doc):
    return {row["label"]: row for row in doc.get("rows", [])}


def compare_bench(name, base, fresh, fail_tol, warn_tol, absolute):
    """Returns (failures, warnings) as lists of messages."""
    failures, warnings = [], []

    for key in BOOLEAN_GATES:
        if base.get(key) is True and fresh.get(key) is False:
            failures.append(
                f"{name}: boolean gate '{key}' flipped true -> false"
            )
        elif base.get(key) is True and key not in fresh:
            failures.append(
                f"{name}: boolean gate '{key}' is in the baseline but "
                f"missing from the fresh run (did its measurement "
                f"round get skipped?)"
            )

    # Quick-suite numbers are not comparable to full-suite numbers
    # (the cached serving rows amortize per-batch overhead over 6x
    # fewer blocks), nor are numbers from hosts with different core
    # counts or pinning. Gate only like against like; the boolean
    # gates above always apply.
    why = incomparable(base, fresh)
    if why:
        warnings.append(f"{name}: {why} — row timings skipped")
        return failures, warnings

    base_rows = rows_by_label(base)
    fresh_rows = rows_by_label(fresh)
    ref_label = REFERENCE_ROW.get(name)
    base_ref = base_rows.get(ref_label, {}).get("blocks_per_sec")
    fresh_ref = fresh_rows.get(ref_label, {}).get("blocks_per_sec")

    for label, base_row in base_rows.items():
        base_bps = base_row.get("blocks_per_sec")
        if base_bps is None:
            continue
        fresh_row = fresh_rows.get(label)
        if fresh_row is None or fresh_row.get("blocks_per_sec") is None:
            warnings.append(f"{name}/{label}: missing from fresh run")
            continue
        fresh_bps = fresh_row["blocks_per_sec"]

        if absolute:
            check_drop(name, label, "blocks/s", base_bps, fresh_bps,
                       fail_tol, warn_tol, failures, warnings)
        if label != ref_label and base_ref and fresh_ref:
            check_drop(name, label, "normalized blocks/s",
                       base_bps / base_ref, fresh_bps / fresh_ref,
                       fail_tol, warn_tol, failures, warnings)
    return failures, warnings


def check_drop(name, label, what, base, fresh, fail_tol, warn_tol,
               failures, warnings):
    if base <= 0:
        return
    drop = 1.0 - fresh / base
    msg = (f"{name}/{label}: {what} {fresh:.3g} vs baseline "
           f"{base:.3g} ({drop:+.1%} regression)")
    if drop > fail_tol:
        failures.append(msg)
    elif drop > warn_tol:
        warnings.append(msg)


def run_gate(args, fresh_docs, base_docs):
    failures, warnings = [], []
    for name in BENCHES:
        base, fresh = base_docs.get(name), fresh_docs.get(name)
        if fresh is None:
            if name in args.require:
                failures.append(
                    f"{name}: required fresh BENCH_{name}.json is "
                    f"missing (did the bench crash before writing "
                    f"it?)"
                )
            else:
                print(f"note: no fresh BENCH_{name}.json — skipped")
            continue
        if base is None:
            failures.append(
                f"{name}: fresh numbers produced but no checked-in "
                f"baseline BENCH_{name}.json"
            )
            continue
        f, w = compare_bench(name, base, fresh, args.fail_tol,
                             args.warn_tol, args.absolute)
        failures += f
        warnings += w

    for msg in warnings:
        print(f"WARN: {msg}")
    for msg in failures:
        print(f"FAIL: {msg}")
    return failures, warnings


def self_test(args, fresh_docs, base_docs):
    # Inject a 50% regression into every fresh non-reference row of
    # EVERY bench and require the gate to catch it somewhere. A bench
    # whose baseline is not comparable (another host, or quick mode)
    # is gated against its own fresh run, so the check bites on any
    # host.
    degraded = copy.deepcopy(fresh_docs)
    injected = False
    for name, doc in degraded.items():
        ref = REFERENCE_ROW.get(name)
        for row in doc.get("rows", []):
            if row.get("label") != ref and "blocks_per_sec" in row:
                row["blocks_per_sec"] *= 0.5
                injected = True
    if not injected:
        print("self-test: FAILED — nothing to inject into")
        return 1
    refs = {}
    for name, doc in fresh_docs.items():
        base = base_docs.get(name)
        refs[name] = (doc if base is None or incomparable(base, doc)
                      else base)
    print("self-test: injected 50% regression — the FAIL lines "
          "below are expected:")
    inj_failures, _ = run_gate(args, degraded, refs)
    if not inj_failures:
        print("self-test: FAILED — injected 50% regression was "
              "not caught")
        return 1

    # The same injected run against a baseline from "another host",
    # with one boolean gate flipped: the rows must be skipped with a
    # warning, and the flipped gate must still fail.
    other_host = copy.deepcopy(fresh_docs)
    for doc in other_host.values():
        host = doc.setdefault("host", {})
        host["hw_threads"] = (host.get("hw_threads") or 0) + 1
    flipped = next(((name, key) for name, doc in degraded.items()
                    for key in BOOLEAN_GATES if doc.get(key) is True),
                   None)
    if flipped:
        degraded[flipped[0]][flipped[1]] = False
    print("self-test: the same run against another host's baseline"
          + (f", with {flipped[0]}/{flipped[1]} flipped" if flipped
             else "") + ":")
    host_failures, host_warnings = run_gate(args, degraded, other_host)
    skipped = [w for w in host_warnings if "host hw_threads differs" in w]
    gate_failures = [f for f in host_failures if "boolean gate" in f]
    if (len(skipped) != len(degraded)
            or len(gate_failures) != len(host_failures)
            or bool(flipped) != bool(gate_failures)):
        print("self-test: FAILED — a host mismatch must skip every "
              "bench's row timings and keep the boolean gates")
        return 1
    print(f"self-test ok: clean pass on real numbers, "
          f"{len(inj_failures)} failure(s) on the injected regression, "
          f"row timings skipped on a host mismatch"
          + (" with the boolean gate kept" if flipped else ""))
    return 0


def rebaseline(run_dirs, out_dir):
    """Write each bench's floor over the runs in run_dirs to out_dir."""
    runs = [load_docs(d) for d in run_dirs]
    for name in BENCHES:
        docs = [r[name] for r in runs if name in r]
        if not docs:
            continue
        if len(docs) != len(runs) or any(incomparable(docs[0], d)
                                         for d in docs):
            print(f"error: {name}: every run must produce "
                  f"BENCH_{name}.json on the same host and mode")
            return 2
        base = copy.deepcopy(docs[0])
        for key, value in base.items():
            if isinstance(value, bool):
                base[key] = all(d.get(key) is True for d in docs)
            elif isinstance(value, (int, float)):
                base[key] = statistics.median_low(d[key] for d in docs)
        ref_label = REFERENCE_ROW[name]
        refs = [rows_by_label(d)[ref_label]["blocks_per_sec"]
                for d in docs]
        for row in base["rows"]:
            if row.get("blocks_per_sec") is None:
                continue
            floor = min(
                rows_by_label(d)[row["label"]]["blocks_per_sec"] / ref
                for d, ref in zip(docs, refs))
            row["blocks_per_sec"] = round(
                statistics.median_low(refs) * floor, 1)
        base["baseline_runs"] = len(docs)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        top = [f'  "{k}": {json.dumps(v)}' for k, v in base.items()
               if k != "rows"]
        rows = [f"    {json.dumps(row)}" for row in base["rows"]]
        with open(path, "w", encoding="utf-8") as f:
            f.write("{\n" + ",\n".join(top) + ',\n  "rows": [\n'
                    + ",\n".join(rows) + "\n  ]\n}\n")
        print(f"wrote {path} (floor of {len(docs)} runs)")
    return 0


def load_docs(directory):
    docs = {}
    for name in BENCHES:
        path = os.path.join(directory, f"BENCH_{name}.json")
        if os.path.exists(path):
            docs[name] = load(path)
    return docs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=".",
                    help="directory of checked-in BENCH_*.json")
    ap.add_argument("--fresh", required=True, nargs="+",
                    help="directory of freshly produced BENCH_*.json "
                         "(several with --rebaseline)")
    ap.add_argument("--fail-tol", type=float, default=0.25,
                    help="fail on a normalized drop above this "
                         "fraction (default 0.25)")
    ap.add_argument("--warn-tol", type=float, default=0.10,
                    help="warn on a normalized drop above this "
                         "fraction (default 0.10)")
    ap.add_argument("--absolute", action="store_true",
                    help="also gate raw blocks/s (same-machine "
                         "baselines only)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate passes on the real numbers "
                         "and fails on an injected 50%% regression")
    ap.add_argument("--require", default="",
                    help="comma-separated bench names whose fresh "
                         "BENCH_*.json must exist (missing = FAIL "
                         "instead of skip)")
    ap.add_argument("--rebaseline", action="store_true",
                    help="write the per-row floor of the --fresh runs "
                         "into --baseline")
    args = ap.parse_args()
    if args.rebaseline:
        return rebaseline(args.fresh, args.baseline)
    if len(args.fresh) != 1:
        print("error: give one --fresh directory (several only with "
              "--rebaseline)")
        return 2
    args.fresh = args.fresh[0]
    args.require = {n for n in args.require.split(",") if n}
    unknown = args.require - set(BENCHES)
    if unknown:
        print(f"error: --require names unknown benches: "
              f"{', '.join(sorted(unknown))} (known: "
              f"{', '.join(BENCHES)})")
        return 2

    knob = os.environ.get("FACILE_BENCH_GATE", "").lower()
    if knob == "off":
        print("FACILE_BENCH_GATE=off — perf gate skipped")
        return 0

    base_docs = load_docs(args.baseline)
    fresh_docs = load_docs(args.fresh)
    if not fresh_docs:
        print(f"error: no BENCH_*.json found in {args.fresh}")
        return 2

    failures, _ = run_gate(args, fresh_docs, base_docs)

    if args.self_test:
        if failures:
            print("self-test: FAILED — the real numbers already "
                  "regress; fix that first")
            return 1
        return self_test(args, fresh_docs, base_docs)

    if failures:
        if knob == "warn":
            print(f"FACILE_BENCH_GATE=warn — {len(failures)} "
                  f"failure(s) downgraded to warnings")
            return 0
        print(f"perf gate: {len(failures)} failure(s)")
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

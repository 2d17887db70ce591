#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json perf trajectory.

Compares freshly produced BENCH_{coldpath,throughput,server}.json
against the checked-in baselines at the repo root and fails the job on
a real regression:

  * any boolean gate that is true in the baseline but false in (or
    missing from) the fresh run (bit_identical, warm_bit_identical,
    and the snapshot load gates — see BOOLEAN_GATES) FAILS
    immediately — these are correctness or order-of-magnitude
    structural gates, not timings (marginal timing-threshold booleans
    like speedup_target_met are intentionally NOT hard gates; the
    tolerance band on their rows covers them);
  * each row's blocks_per_sec is compared *normalized* to the bench's
    serial reference row (coldpath: serial_fresh, throughput: serial,
    server: serial), so a faster or slower CI machine shifts every row
    together and only genuine relative regressions trip the gate.
    A normalized drop > --fail-tol (default 25%) FAILS, > --warn-tol
    (default 10%) warns;
  * with --absolute the raw blocks_per_sec values are gated too — use
    this only when baseline and fresh numbers come from the same
    machine (e.g. a dedicated perf host), never on shared runners.

Override knob: FACILE_BENCH_GATE=off skips the gate entirely (exit 0),
FACILE_BENCH_GATE=warn reports but never fails. Both are meant for
emergencies (e.g. landing a PR that knowingly rebases the perf
trajectory together with new baselines), not for routine use.

--self-test proves the gate actually gates: it first runs the real
comparison (which must pass), then injects a synthetic 50% regression
into the fresh numbers in memory and asserts the comparison fails.

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
# gates belong here: timing-threshold booleans like coldpath's
# speedup_target_met hover at their cutoff on noisy runners and are
# covered by the tolerance band on the corresponding rows
# (serial_interned vs serial_fresh) instead. The snapshot load-scaling
# gate is the exception that proves the rule: it compares an
# order-of-magnitude structural effect measured in the same run on the
# same machine (scaling the record universe ~100x must grow the load
# cost by less than a quarter of the record-count growth), so a flip
# means the lazy bind broke, not that the runner was busy.
BOOLEAN_GATES = [
    "bit_identical",
    "warm_bit_identical",
    "v2_first_predict_identical",
    "v2_load_sublinear",
    "wire_bootstrap_identical",
]


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


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

    # Quick-suite numbers are not comparable to full-suite numbers:
    # the cached serving rows amortize per-batch overhead over 6x
    # fewer blocks. Gate only like against like; the boolean gates
    # above always apply.
    if bool(base.get("quick_mode")) != bool(fresh.get("quick_mode")):
        warnings.append(
            f"{name}: quick_mode differs between baseline and fresh "
            f"run — row timings skipped (run the gate on full-suite "
            f"numbers)"
        )
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
    ap.add_argument("--fresh", required=True,
                    help="directory of freshly produced BENCH_*.json")
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
    args = ap.parse_args()
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
        # Inject a 50% regression into every fresh non-reference row
        # of EVERY bench and require the gate to catch it somewhere.
        # All benches (not just the first) so the self-test still
        # bites when one bench's rows are incomparable — e.g. a
        # quick-mode coldpath run against a full-suite baseline.
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
        print("self-test: injected 50% regression — the FAIL lines "
              "below are expected:")
        inj_failures, _ = run_gate(args, degraded, base_docs)
        if not inj_failures:
            print("self-test: FAILED — injected 50% regression was "
                  "not caught")
            return 1
        print(f"self-test ok: clean pass on real numbers, "
              f"{len(inj_failures)} failure(s) on the injected "
              f"regression")
        return 0

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

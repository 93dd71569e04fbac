#!/usr/bin/env python3
"""Compare a fresh learner-quality artifact against the checked-in baseline.

Reads artifacts with a "rows" array keyed by (scenario, policy, epochs):
BENCH_regret.json from bench_regret and BENCH_resilience.json from
bench_resilience. Rows pair up by those identity fields, so baseline
and current rows match even if the sweep order changes.

Every ``*regret*`` field is compared: more than
max(--tolerance * |baseline|, 1.0) ABOVE the baseline is a regression
(a learner/exploration change broke censored recovery, or a policy now
loses more capacity to the same faults). Less regret is an improvement
and never fails; the absolute 1 s slack keeps near-zero baselines from
turning noise into a gate.

A baseline that yields no comparable counters at all is an error, not a
pass: a silently empty comparison is how a gate rots. Exit status: 0 =
within tolerance, 1 = regression, 2 = usage/IO error or empty baseline.
The CI jobs running this are non-blocking (continue-on-error): the
intended way to land a behaviour change is to commit the fresh JSON as
the new baseline.
"""

import argparse
import json
import sys

# Fields that identify a row across runs (order-independent).
IDENTITY_KEYS = ("scenario", "policy", "epochs")

# Regret counters below this baseline magnitude gate on an absolute 1 s
# slack instead of a fraction of nothing.
REGRET_ABS_SLACK_S = 1.0


def row_name(row):
    return "/".join(["rows"] + [f"{key}:{row[key]}" for key in IDENTITY_KEYS
                                if key in row])


def load_counters(path):
    """Map row name -> {regret counter: value}."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    counters = {}
    for row in doc.get("rows", []):
        regrets = {key: float(value) for key, value in row.items()
                   if "regret" in key and isinstance(value, (int, float))}
        if regrets:
            counters[row_name(row)] = regrets
    return counters


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional drift (default 0.15)")
    args = parser.parse_args()

    baseline = load_counters(args.baseline)
    current = load_counters(args.current)
    if not baseline:
        print(f"error: baseline {args.baseline} contains no comparable "
              "counters — the gate would pass vacuously", file=sys.stderr)
        return 2
    if not current:
        print(f"error: current run {args.current} contains no comparable "
              "counters", file=sys.stderr)
        return 2

    failures = []
    for name, base_counters in sorted(baseline.items()):
        cur_counters = current.get(name)
        if cur_counters is None:
            failures.append(f"{name}: missing from current run")
            continue
        for counter, base in sorted(base_counters.items()):
            cur = cur_counters.get(counter)
            if cur is None:
                failures.append(f"{name}/{counter}: missing from current run")
                continue
            # Regret gates upward on an absolute scale: negative and
            # near-zero baselines are legitimate (a policy may beat the
            # mean clairvoyant trace on lucky draws), so a ratio test
            # would divide by ~0.
            slack = max(args.tolerance * abs(base), REGRET_ABS_SLACK_S)
            verdict = "ok"
            if cur > base + slack:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}/{counter}: regret {base:.3g} -> {cur:.3g} s "
                    f"(+{cur - base:.3g} s) — censored-feedback "
                    "recovery got worse")
            elif cur < base - slack:
                verdict = "improved"
            print(f"{name}/{counter}: {base:.3g} -> {cur:.3g} s "
                  f"({cur - base:+.3g} s) {verdict}")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.tolerance * 100:.0f}% tolerance:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternated before/after pairs of the repo's benchmark.

Runs `bash benchmark/run.sh --workload W --seed S --seconds T --trace 0` N
times in each of two checkouts, the parent's and the change's, alternating
which goes first (ABBA) so drift of the host falls on both sides alike. Then,
for every end-to-end metric of BENCHMARK.json, it prints each side's median
and q1–q3, the pairs the change won (by the metric's direction), the median
change against the metric's bound, and the share of operations that failed.

  python3 scripts/pairs.py --parent ../parent --change . --workload embed-read \\
      --pairs 10 --seed 19 --seconds 10 --claim window_p50_us [--save runs.jsonl]
  python3 scripts/pairs.py --load runs.jsonl --claim window_p50_us
  python3 scripts/pairs.py --self-test

--claim METRIC adds the verdict on a claimed gain: the change must win at least
nine pairs in ten, and its median must beat the parent's by more than the
parent's q1–q3 spread. --save writes every result line tagged with its side
and pair; --load re-reads such a file instead of running anything. The exit
status is 1 when a claim fails, a metric is worse beyond its bound, or an
operation failed."""
import argparse, json, math, os, statistics, subprocess, sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
metrics = spec["end_to_end"]


def quartiles(xs):
    """Returns q1, median, q3 of xs (inclusive method; one value is all three)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run(checkout, workload, seed, seconds):
    """One benchmark run in checkout; returns its result object."""
    out = subprocess.run(["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads([l for l in out.splitlines() if l.strip()][-1])


def report(pairs, claim=None, out=sys.stdout):
    """Prints the table for pairs, a list of (parent, change) result objects,
    and the claim's verdict; returns whether every check passed."""
    ok = True
    n = len(pairs)
    print(f"{n} pairs", file=out)
    print("| metric | parent median (q1–q3) | change median (q1–q3) | change | bound | wins |", file=out)
    print("|---|---:|---:|---:|---:|---:|", file=out)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        rel = (cm - pm) / pm if pm else 0.0
        worse = rel > m["bound"] if lower else -rel > m["bound"]
        ok = ok and not worse
        flag = " WORSE beyond bound" if worse else ""
        print(f"| {name} | {pm:.5g} ({p1:.5g}–{p3:.5g}) | {cm:.5g} ({c1:.5g}–{c3:.5g}) | "
              f"{100 * rel:+.1f} %{flag} | {100 * m['bound']:.1f} % | {wins}/{n} |", file=out)
    for side, i in (("parent", 0), ("change", 1)):
        failed = sum(pair[i]["failed"] for pair in pairs)
        attempted = sum(pair[i]["attempted"] for pair in pairs)
        wrong = sum(not pair[i]["correct"] for pair in pairs)
        print(f"{side}: {failed} of {attempted} operations failed, {wrong} runs answered wrongly", file=out)
        ok = ok and failed == 0 and wrong == 0
    if claim:
        m = next((m for m in metrics if m["name"] == claim), None)
        if m is None:
            raise SystemExit(f"--claim {claim}: not an end-to-end metric of BENCHMARK.json")
        lower = m["better"] == "lower"
        par = [p["metrics"][claim]["value"] for p, _ in pairs]
        chg = [c["metrics"][claim]["value"] for _, c in pairs]
        (p1, pm, p3), (_, cm, _) = quartiles(par), quartiles(chg)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        gain = pm - cm if lower else cm - pm
        enough = wins >= math.ceil(0.9 * n)
        clear = gain > p3 - p1
        print(f"claim {claim}: {wins}/{n} wins (need {math.ceil(0.9 * n)}) {'ok' if enough else 'FAIL'}; "
              f"median gain {gain:.5g} vs parent q1–q3 spread {p3 - p1:.5g} {'ok' if clear else 'FAIL'}", file=out)
        ok = ok and enough and clear
    return ok


def canned(pair, side, **values):
    """A result line as run.sh prints it, with every end-to-end metric."""
    base = {m["name"]: 1.0 for m in metrics}
    base.update(values)
    return {"side": side, "pair": pair, "correct": True, "attempted": 1000, "failed": 0,
            "metrics": {k: {"value": v, "unit": ""} for k, v in base.items()}}


def self_test():
    """Checks the verdicts on canned result lines; raises on a wrong one."""
    import io
    # The change wins every pair by 10 %, far beyond the parent's spread.
    good = [(canned(i, "parent", window_p50_us=6.0 + 0.01 * i), canned(i, "change", window_p50_us=5.4 + 0.01 * i))
            for i in range(10)]
    buf = io.StringIO()
    assert report(good, "window_p50_us", buf), buf.getvalue()
    assert "10/10 wins" in buf.getvalue(), buf.getvalue()
    # Eight wins in ten are not enough.
    eight = [(p, dict(c, metrics=dict(c["metrics"], window_p50_us={"value": 6.5 if i < 2 else 5.4, "unit": ""})))
             for i, (p, c) in enumerate(good)]
    buf = io.StringIO()
    assert not report(eight, "window_p50_us", buf) and "8/10 wins" in buf.getvalue(), buf.getvalue()
    # Ten wins by less than the parent's q1–q3 spread are not a gain.
    wide = [(canned(i, "parent", window_p50_us=5.0 + 0.2 * i), canned(i, "change", window_p50_us=4.99 + 0.2 * i))
            for i in range(10)]
    buf = io.StringIO()
    assert not report(wide, "window_p50_us", buf) and "10/10 wins" in buf.getvalue(), buf.getvalue()
    # A higher-is-better metric that falls beyond its bound fails, and so
    # does a failed operation.
    slow = [(canned(i, "parent", ops_per_s=100.0), canned(i, "change", ops_per_s=70.0)) for i in range(3)]
    buf = io.StringIO()
    assert not report(slow, None, buf) and "WORSE beyond bound" in buf.getvalue(), buf.getvalue()
    failing = [(canned(0, "parent"), dict(canned(0, "change"), failed=3))]
    buf = io.StringIO()
    assert not report(failing, None, buf) and "3 of 1000 operations failed" in buf.getvalue(), buf.getvalue()
    # --save output reads back into the same pairs.
    lines = [json.dumps(r) for pair in good for r in pair]
    assert pairs_from(lines) == good
    print("pairs.py self-test: ok")


def pairs_from(lines):
    """Rebuilds (parent, change) pairs from --save lines."""
    rows = [json.loads(l) for l in lines if l.strip()]
    by = {(r["side"], r["pair"]): r for r in rows}
    n = 1 + max(r["pair"] for r in rows)
    return [(by[("parent", i)], by[("change", i)]) for i in range(n)]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", default="embed-read")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.get("run_seconds", 10))
    ap.add_argument("--claim", help="end-to-end metric the change claims a gain on")
    ap.add_argument("--save", help="write every result line, tagged with side and pair, here")
    ap.add_argument("--load", help="read pairs from a --save file instead of running")
    ap.add_argument("--self-test", action="store_true", help="check the verdicts on canned result lines")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if args.load:
        pairs = pairs_from(open(args.load).read().splitlines())
    else:
        if not (args.parent and args.change):
            ap.error("--parent and --change are required unless --load or --self-test is given")
        pairs = []
        for i in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            got = {}
            for side, checkout in order:
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                got[side] = dict(run(checkout, args.workload, args.seed, args.seconds),
                                 side=side, pair=i, workload=args.workload)
            pairs.append((got["parent"], got["change"]))
        if args.save:
            with open(args.save, "w") as f:
                for pair in pairs:
                    for r in pair:
                        f.write(json.dumps(r) + "\n")
    print(f"workload {pairs[0][0].get('workload', args.workload)}")
    if not report(pairs, args.claim):
        sys.exit(1)


if __name__ == "__main__":
    main()

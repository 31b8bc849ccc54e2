#!/usr/bin/env python3
"""Renders every BENCH_<pr>.json at the repo root as one markdown table: a row
per PR and workload, a column per ledger cell named on the command line (the
default set is the learned path's). A BENCH file holds the result objects that
`bash benchmark/run.sh --workload W --seed 1 --seconds 10 --trace 1` prints
last, one line per workload in BENCHMARK.json's order. Timing cells (unit ns,
us or s) are as measured, and a BENCH file taken in a slow hour reads slow in
every one of them, so each is followed by a "÷ref" column: the cell in
multiples of the row's host.ref_ns, the reference look-up timed in the same
pass. Compare PRs on that column; counts, ratios and bytes have none. A
malformed file (wrong line count, a wrong answer, a missing per-layer metric)
is an exception."""
import glob, json, os, re, sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
workloads = [w["name"] for w in spec["workloads"]]
required = [m["name"] for m in spec["per_layer"]]
cols = sys.argv[1:] or ["host.ref_ns"] + ["core.%s_%s" % (op, kind) for kind in ("ns", "blocks")
                        for op in ("point", "window", "knn")] + ["core.insert_ns", "core.err_blocks", "store.bytes_per_point"]
ns_per = {"ns": 1, "us": 1e3, "s": 1e9}
units = {m["name"]: m["unit"] for m in spec["per_layer"]}
assert all(c in units for c in cols), f"not a per-layer metric of BENCHMARK.json: {[c for c in cols if c not in units]}"
timed = [c != "host.ref_ns" and units[c] in ns_per for c in cols]
heads = [h for c, t in zip(cols, timed) for h in ([c, "÷ref"] if t else [c])]
print("| PR | workload | " + " | ".join(heads) + " |")
print("|---|---|" + "---:|" * len(heads))
pr = lambda path: int(re.search(r"BENCH_(\d+)\.json$", path).group(1))
for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json")), key=pr):
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    assert len(lines) == len(workloads), f"{path}: {len(lines)} result lines, want {len(workloads)}"
    for name, line in zip(workloads, lines):
        res = json.loads(line)
        assert res["correct"] and res["failed"] == 0, f"{path}: {name} answered wrongly"
        missing = [c for c in required + cols if c not in res["metrics"]]
        assert not missing, f"{path}: {name} lacks {missing}"
        value = lambda c: res["metrics"][c]["value"]
        cells = [f"{v:.5g}" for c, t in zip(cols, timed)
                 for v in ([value(c), value(c) * ns_per[units[c]] / value("host.ref_ns")] if t else [value(c)])]
        print(f"| {pr(path)} | {name} | " + " | ".join(cells) + " |")

"""Prints REPEATABILITY.md from the result lines repeat.sh collected.

For every workload x end-to-end cell: the medians of set A and set B, their
relative difference, the worst deviation of a single run from its set's
median, and each set's spread as the benchmark contract defines it (the
distance between the first and third quartile of the set's values, by
statistics.quantiles(values, n=4), as a share of their median).
"""
import json
import statistics
import sys

out, n, seconds, seed, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5:]
cells = ["setup_s", "ops_per_s", "point_p50_us", "window_p50_us", "knn_p50_us",
         "write_p50_us", "window_recall", "knn_recall", "bytes_per_point"]


def load(set_name, workload):
    runs = [json.loads(line) for line in open(f"{out}/{set_name}.{workload}.jsonl")]
    assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{set_name} {workload}: a run failed its checks"
    return {c: [r["metrics"][c]["value"] for r in runs] for c in cells}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


print("# Repeatability of the end-to-end cells\n")
print(f"Two sets (A, B) of {n} passes of one binary, workloads alternating inside a pass,")
print(f"pass *i* run with `--seed {seed} --seconds {seconds}`; produced by `bash benchmark/repeat.sh {n}{'' if seed == 'i' else ' ' + seed}`.\n")
print("- **A**, **B**: the set's median. **B vs A**: (B - A) / A.")
print("- **worst run**: the largest |run - set median| / set median over both sets.")
print("- **spread A**, **spread B**: (Q3 - Q1) / median of the set's values, quartiles by")
print("  Python's `statistics.quantiles(values, n=4)`: the figure the driver holds against the bound.\n")
for w in workloads:
    a, b = load("A", w), load("B", w)
    print(f"## {w}\n")
    print("| cell | A | B | B vs A | worst run | spread A | spread B |")
    print("|---|---|---|---|---|---|---|")
    for c in cells:
        ma, mb = statistics.median(a[c]), statistics.median(b[c])
        worst = max(abs(v - m) / m for vs, m in ((a[c], ma), (b[c], mb)) for v in vs)
        print(f"| `{c}` | {ma:.6g} | {mb:.6g} | {(mb - ma) / ma:+.2%} | {worst:.2%} | {spread(a[c]):.2%} | {spread(b[c]):.2%} |")
    print()

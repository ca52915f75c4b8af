"""Benchmark entry point: seeded, closed-loop workloads over wdsparql.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; it needs nothing beyond the standard
library and the package under ``src/``.  For each workload the inputs are
generated from the seed by gen.py (text files under ``.bench_work/``),
and the workload runs in a child process of its own (workloads.py), so
process-global caches and peak memory belong to that workload alone.
Workloads run one after another, never concurrently.

--seconds is the run length and must equal BENCHMARK.json's run_seconds,
so that every run, and both sides of a comparison, measure alike.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json from one
timed child, which times a fixed reference kernel after every op and
scales each op's latency to the reference speed (workloads.REF_S) by the
kernel's times around it; that cancels the host's own slowdowns, and the
unscaled figures are printed beside the scaled ones.  setup_s is
the median of SETUP_RUNS cold set-ups, scaled alike, one per fresh child,
half of them before the timed child and half after it (the timed child's
own set-up is one of them).  --trace 1 runs the same first TRACE_OPS ops
in fresh children, alternately plain and with the layer wrappers of
layertrace.py, and prints the per-layer metrics of a traced child and the
tracing overhead (traced wall time over plain wall time).  The last line of
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import gen  # noqa: E402
from workloads import REF_S  # noqa: E402

# ops per traced run: roughly 5-10 s untraced on a 2-vCPU x86-64 VM
TRACE_OPS = {"membership": 150, "answers": 100, "hardness": 200}
TRACE_PAIRS = 2
SETUP_RUNS = 9
# children of one workload are killed once this much time has passed
WORKLOAD_LIMIT_S = 170
BASELINE = os.path.join(HERE, "baseline.json")
OUTCOME = {"membership": "yes decisions", "answers": "answer lines", "hardness": "instances with a clique"}


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child(workload: str, inputs: str, mode: str, amount, deadline: float) -> dict:
    result = inputs + ".result.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), workload, inputs, mode, str(amount), result],
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
        env=env,
        cwd=ROOT,
    )
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer_value(name: str, out: dict):
    """Resolve a per-layer metric name against a traced child's output.

    A name that matches no wrapped function (a function renamed or removed
    from the library, or a typo) is an error, never a silent 0.
    """
    layers = out["layers"]
    if name == "trace.overhead_ratio":
        return out["overhead_ratio"]
    module, _, rest = name.partition(".")
    if "." not in rest:  # <layer>.self_s: the layer's summed self time
        rows = [row for fn, row in layers.items() if fn.split(".")[0] == module]
        if not rows:
            raise LookupError(f"per-layer metric {name}: no traced function in layer {module}")
        return sum(row[rest] for row in rows)
    function, _, stat = rest.rpartition(".")
    key = f"{module}.{function}"
    if key in out["counts"] and stat == "calls":
        return out["counts"][key]
    if stat not in layers.get(key, {}):
        raise LookupError(f"per-layer metric {name}: the traced run has no {stat} for {key}")
    return layers[key][stat]


def _top_layers(layers: dict, n: int = 3) -> list:
    totals: dict = {}
    for fn, row in layers.items():
        layer = fn.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + row["self_s"]
    return sorted(totals, key=totals.get, reverse=True)[:n]


def _compare_ranking(workload: str, top: list) -> str:
    with open(BASELINE, encoding="utf-8") as fh:
        recorded = json.load(fh)["top_layers"][workload]
    if recorded == top:
        return "same top three, same order, as recorded in perfbench/baseline.json"
    if set(recorded) == set(top):
        return f"same top three as recorded ({', '.join(recorded)}); near-equal layers swapped places"
    return f"differs from the recorded top three ({', '.join(recorded)})"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    files = gen.generate(workload, seed)
    os.makedirs(WORK, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        for name, text in files.items():
            with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"[{workload}] seed={seed} inputs sha256={gen.digest(files)} files={len(files)}")
        if not trace:
            before = SETUP_RUNS // 2
            setups = [_child(workload, inputs, "setup", 0, deadline) for _ in range(before)]
            out = _child(workload, inputs, "timed", seconds, deadline)
            setups.append(out)
            setups += [_child(workload, inputs, "setup", 0, deadline) for _ in range(SETUP_RUNS - 1 - before)]
            out["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            metrics = {m["name"]: {"value": out[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
            print(
                f"[{workload}] closed loop, 1 client: {out['ops']} ops in {out['elapsed_s']:.2f} s "
                f"({out['ops'] / out['elapsed_s']:.2f} ops/s by the wall clock, p90 from {out['ops']} "
                f"samples); {OUTCOME[workload]} among the stream's ops: {out['outcome']}"
            )
            print(
                f"[{workload}] reference kernel {out['reference_ms']:.3f} ms on average against "
                f"{REF_S * 1e3:g} ms at the reference speed; unscaled p50 {out['raw_latency_p50_ms']:.2f} ms; "
                f"cold set-ups {', '.join(format(s['setup_raw_s'], '.3f') for s in setups)} s unscaled"
            )
        else:
            ops = TRACE_OPS[workload]
            # plain and traced children alternate, TRACE_PAIRS times each, so
            # that a drift in machine speed lands on both sides of the ratio
            plain_s = traced_s = 0.0
            for _ in range(TRACE_PAIRS):
                plain_s += _child(workload, inputs, "plain", ops, deadline)["wall_s"]
                out = _child(workload, inputs, "traced", ops, deadline)
                traced_s += out["wall_s"]
            out["overhead_ratio"] = traced_s / plain_s
            spans_file = os.path.join(WORK, f"spans-{workload}.tsv.gz")
            os.replace(inputs + ".result.json.spans.tsv.gz", spans_file)
            metrics = {
                m["name"]: {"value": _per_layer_value(m["name"], out), "unit": m["unit"]}
                for m in spec["per_layer"]
            }
            top = _top_layers(out["layers"])
            print(
                f"[{workload}] {ops} ops, {TRACE_PAIRS} times each way: {traced_s:.2f} s traced vs "
                f"{plain_s:.2f} s plain; {out['spans']} spans per traced run, the last in "
                f"{os.path.relpath(spans_file, ROOT)}"
            )
            print(f"[{workload}] top layers by self time: {', '.join(top)}; {_compare_ranking(workload, top)}")
            raised = [f"{fn} x{row['errors']}" for fn, row in out["layers"].items() if row["errors"]]
            if raised:
                print(f"[{workload}] calls that raised: {', '.join(raised)}")
            print(
                f"[{workload}] graphs.treewidth is reached only on ctw cache misses "
                "(a cold start on hardness), so its self time is expected near zero"
            )
        attempted = out["ops"]
        failed = sum(out["failures"].values())
        for m, v in metrics.items():
            print(f"[{workload}] {m} = {v['value']:.6g} {v['unit']}")
        print(f"[{workload}] failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted})")
        for kind, n in sorted(out["failures"].items()):
            print(f"[{workload}] failure {kind}: {n}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        for leftover in (inputs + ".result.json", inputs + ".result.json.spans.tsv.gz"):
            if os.path.exists(leftover):
                os.remove(leftover)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length; must equal run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wdsparql", "__init__.py")):
        print(f"error: no wdsparql package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = _load_spec()
    if args.seconds != spec["run_seconds"]:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {spec['run_seconds']}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness and traced-run reports for the mpxbench benchmark.

    python3 mpxbench/report.py steady [--runs 10] [--seed0 1000] [--workloads a,b]
                                      [--out FILE.json] [--md FILE.md]
        Runs each workload --runs times, each with another seed, and prints,
        per end-to-end metric, the median, the quartiles (statistics.quantiles,
        n=4) and the quartile spread as a share of the median, against the
        metric's bound from BENCHMARK.json. --out writes the raw values as
        JSON, --md the tables as markdown.

    python3 mpxbench/report.py calibrate [--rates 400,750,1000,1400] [--seeds 3] [--seed0 2000]
                                          [--workloads a,b] [--out FILE.md]
        Runs each workload at each open-loop rate (--rate) on --seeds seeds
        and tabulates phase A's closed-loop capacity (the mix alone and the
        whole phase, requests per second of busy time) beside phase B's
        SLO share, generator lateness and send lag at that rate. The rate
        in workloads.go is half the mix capacity, checked to build no
        backlog while the side builds run.

    python3 mpxbench/report.py trace [--seed 7] [--workloads a,b] [--out FILE]
        Runs each workload untraced and traced on one seed and writes a
        markdown report: the per-layer metrics, each span's self time and
        its share of the build or query path, and the tracing overhead
        (traced minus untraced) of every end-to-end metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_once(workload, seed, trace, extra=(), strict=True):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if (strict and out.returncode != 0) or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def steady(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    raw, hosts = {}, {}
    worst, over = 0.0, []
    md = []
    for w in workloads:
        values = {m: [] for m in bounds}
        runs = []
        for i in range(args.runs):
            rec, res = run_once(w, args.seed0 + i, 0)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {args.seed0 + i}: incorrect run {res}")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            runs.append({"seed": args.seed0 + i, "wall_s": rec["wall_s"], "steal_frac": rec["detail"]["steal_frac"],
                         "detail": rec["detail"]})
            hosts[w] = rec["host"]
            print(f"{w} seed {args.seed0 + i}: wall {rec['wall_s']:.1f} s, host steal "
                  f"{rec['detail']['steal_frac']:.1%}", file=sys.stderr)
        raw[w] = {"runs": runs, "values": values}
        print(f"\n{w} ({args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1})")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  ok")
        md += [f"### {w}", "", f"{args.runs} runs, seeds {args.seed0}–{args.seed0 + args.runs - 1}; wall "
               f"{min(r['wall_s'] for r in runs):.1f}–{max(r['wall_s'] for r in runs):.1f} s per run; host CPU steal "
               f"{min(r['steal_frac'] for r in runs):.1%}–{max(r['steal_frac'] for r in runs):.1%}.", "",
               "| metric | median | q1 | q3 | spread | bound | spread < bound/3 |", "|---|---|---|---|---|---|---|"]
        for m, vs in values.items():
            q1, med, q3, s = spread(vs)
            ok = s < bounds[m] / 3
            worst = max(worst, s / bounds[m])
            if s > bounds[m]:
                over.append(f"{w} {m}")
            print(f"  {m:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.4f} {bounds[m]:6.2f}  {'yes' if ok else 'NO'}")
            md.append(f"| `{m}` | {med:.6g} | {q1:.6g} | {q3:.6g} | {s:.4f} | {bounds[m]} | {'yes' if ok else 'no'} |")
        md.append("")
    over_text = ", ".join(over) if over else "none"
    print(f"\nworst spread/bound: {worst:.3f} (target < 0.333); spread above bound: {over_text}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "seed0": args.seed0, "hosts": hosts, "workloads": raw}, f, indent=1)
    if args.md:
        host = next(iter(hosts.values()))
        head = ["# mpxbench steadiness", "",
                f"Host: {host['cpu']}, nproc {host['nproc']}, GOMAXPROCS {host['gomaxprocs']}, {host['go_version']}, "
                f"commit {host['commit'] or 'unknown'}, sources {host['source_sha256']}.", "",
                "Spread is (q3 − q1) / median over the runs, with quartiles from Python's "
                "`statistics.quantiles(values, n=4)`. Each run uses another seed, so the spread includes "
                "input variation as well as the host's.", "",
                f"Worst spread / bound over all metrics: {worst:.3f}. Spread above its bound: {over_text}.", ""]
        with open(args.md, "w") as f:
            f.write("\n".join(head + md))


def trace(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    out = ["# mpxbench traced-run report", ""]
    for w in workloads:
        plain, _ = run_once(w, args.seed, 0)
        traced, res = run_once(w, args.seed, 1)
        host = traced["host"]
        out += [f"## {w} (seed {args.seed})", "",
                f"Host: {host['cpu']}, nproc {host['nproc']}, GOMAXPROCS {host['gomaxprocs']}, "
                f"{host['go_version']}, commit {host['commit'] or 'unknown'}, sources {host['source_sha256']}.", "",
                "| per-layer metric | value | unit |", "|---|---|---|"]
        for m in SPEC["per_layer"]:
            v = res["metrics"][m["name"]]
            out.append(f"| `{m['name']}` | {v['value']:.6g} | {v['unit']} |")
        spans = traced["spans"]
        http_build = sum(s["total_s"] for n, s in spans.items() if n.startswith("server.http_build."))
        lib = sum(spans[n]["total_s"] for n in ("apps.lowstretch", "apps.blocks", "apps.connectivity") if n in spans)
        out += ["", "Span self time (total minus child spans). Shares of the build path are of the "
                "library builds' total (`apps.*`); `hier.run` self time is the engine's own derivation, "
                "its `hier.level` children are the benchmark's per-level replays.", "",
                "| span | count | total s | self s | share |", "|---|---|---|---|---|"]
        for n in sorted(spans):
            s = spans[n]
            share = ""
            if n.startswith("apps.") and lib:
                share = f"{s['total_s'] / lib:.1%} of library builds"
            elif n.startswith("server.http_build.") and http_build:
                share = f"{s['total_s'] / http_build:.1%} of HTTP builds"
            out.append(f"| `{n}` | {s['count']} | {s['total_s']:.4f} | {s['self_s']:.4f} | {share} |")
        eng = spans.get("hier.run", {}).get("self_s", 0)
        serve = spans.get("server.serve_http", {}).get("total_s", 0)
        out += ["", "Shares of the blocking path, comparable to a CPU profile. The build row is the "
                "hierarchy derivation (`hier.run` self time = 100%) against the per-level replays of "
                "its steps; the query row is in-process `ServeHTTP` (= 100%).", "",
                "| path | step | share |", "|---|---|---|"]
        for name, label in (("core.partition", "partition, all levels"), ("core.shifts", "shift generation, level 0"),
                            ("graph.contract", "contraction, all levels")):
            if eng and name in spans:
                out.append(f"| build | {label} | {spans[name]['total_s'] / eng:.1%} |")
        if serve:
            orc = spans.get("oracle.dist_batch", {}).get("total_s", 0)
            out.append(f"| query | oracle `DistBatch` | {orc / serve:.1%} |")
            out.append(f"| query | handler and JSON codec (self) | {1 - orc / serve:.1%} |")
        out += ["", f"Tracing overhead. One span (begin + end) costs {traced['detail']['span_ns']:.0f} ns, and a "
                "timed request carries one, so tracing adds well under 0.1% to any end-to-end timing. The "
                "traced-minus-untraced differences below are single runs of each, so they also carry the "
                "host's run-to-run drift of 5-10% (see steadiness.md); differences within that are noise.", "",
                "| end-to-end metric | untraced | traced | traced − untraced |", "|---|---|---|---|"]
        for m in SPEC["end_to_end"]:
            a, b = plain["end_to_end"][m["name"]], traced["end_to_end"][m["name"]]
            out.append(f"| `{m['name']}` | {a:.6g} | {b:.6g} | {b - a:+.3g} ({(b - a) / a:+.1%}) |")
        out.append("")
        print(f"{w} done", file=sys.stderr)
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)


def calibrate(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    rates = [float(r) for r in args.rates.split(",")]
    out = ["# mpxbench open-loop rate calibration", ""]
    host = None
    for w in workloads:
        out += [f"## {w}", "", "| rate req/s | seed | phase A mix req/s | phase A req/s | query_slo_frac | "
                "late p50 ms | late p99 ms | send lag first/last quarter ms | side builds | valid |",
                "|---|---|---|---|---|---|---|---|---|---|"]
        caps = []
        for rate in rates:
            for i in range(args.seeds):
                seed = args.seed0 + i
                rec, res = run_once(w, seed, 0, ("--rate", f"{rate:g}"), strict=False)
                host = rec["host"]
                d = rec["detail"]
                caps.append(d["phase_a_mix_req_per_s"])
                out.append(f"| {rate:g} | {seed} | {d['phase_a_mix_req_per_s']:.0f} | {d['phase_a_req_per_s']:.0f} | "
                           f"{res['metrics']['query_slo_frac']['value']:.4f} | {d['late_p50_s'] * 1e3:.3f} | "
                           f"{d['late_p99_s'] * 1e3:.2f} | {d['lag_first_p50_s'] * 1e3:.3f} / "
                           f"{d['lag_last_p50_s'] * 1e3:.3f} | {d['side_builds']:.0f} | "
                           f"{'no: ' + rec['invalid'] if rec.get('invalid') else 'yes'} |")
                print(f"{w} rate {rate:g} seed {seed} done", file=sys.stderr)
        out += ["", f"Median phase A mix capacity over these runs: {statistics.median(caps):.0f} req/s; "
                f"half of it: {statistics.median(caps) / 2:.0f} req/s.", ""]
    out[1:1] = [f"Host: {host['cpu']}, nproc {host['nproc']}, GOMAXPROCS {host['gomaxprocs']}, {host['go_version']}, "
                f"commit {host['commit'] or 'unknown'}, sources {host['source_sha256']}.", ""]
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1000)
    s.add_argument("--workloads", default="")
    s.add_argument("--out", default="")
    s.add_argument("--md", default="")
    t = sub.add_parser("trace")
    t.add_argument("--seed", type=int, default=7)
    t.add_argument("--workloads", default="")
    t.add_argument("--out", default="")
    c = sub.add_parser("calibrate")
    c.add_argument("--rates", default="400,750,1000,1400")
    c.add_argument("--seeds", type=int, default=3)
    c.add_argument("--seed0", type=int, default=2000)
    c.add_argument("--workloads", default="")
    c.add_argument("--out", default="")
    args = ap.parse_args()
    {"steady": steady, "trace": trace, "calibrate": calibrate}[args.cmd](args)


if __name__ == "__main__":
    main()

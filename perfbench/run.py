"""putpricer benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics of a separately traced phase and the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it repeat each metric by name and unit, under the names the
workload's own report uses.  A full record, with the machine and versions,
goes to `.perfbench-out/`.
"""

from __future__ import annotations

import os

# single-threaded native math, so the load stays within the cores given;
# set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 9

# which end-to-end figure each per-layer metric should move, and on which
# workload; the first matching prefix wins
LAYER_TIES = (
    ("special_functions.ns_per_elem", "exact_melem_per_s, series_melem_per_s", "arrays"),
    ("special_functions.", "figures_s, quote_p50_us", "figures, quotes"),
    ("transforms.", "figures_s, quote_p50_us", "figures, quotes"),
    ("config.", "figures_s, quote_p50_us", "figures, quotes"),
    ("exact_pricing.", "figures_s, quote_p50_us, validate_s", "figures, quotes, validate"),
    ("hpm_series.", "figures_s, quotes_per_s, series_melem_per_s", "figures, quotes, arrays"),
    ("pde_oracle.", "validate_s", "validate"),
    ("surface.", "figures_s", "figures"),
    ("cli.", "figures_s", "figures"),
    ("validation.", "validate_s", "validate"),
    ("tracing.", "(cost of the traced phase)", "all"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "quotes", "arrays", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload, seed):
    """Import the library and generate the inputs of `workload`."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import putpricer
    if os.path.dirname(os.path.abspath(putpricer.__file__)) != os.path.join(SRC, "putpricer"):
        raise ImportError(f"putpricer imported from {putpricer.__file__}, not from {SRC}")
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, OUT_DIR)


def probe_setup(args, count):
    """Seconds of `count` set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(workload, seconds, tracer=None, between=None):
    """Run operations for `seconds` (at least one); time each, check each.

    `between(share)`, if given, is called after each operation with the
    share of the window done; the time it takes is added to the window.
    """
    latencies, groups = [], []
    attempted = failed = items = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        start = time.perf_counter()
        try:
            result = workload.op(i, tracer)
        except Exception:
            traceback.print_exc()
            result = None
        latencies.append(time.perf_counter() - start)
        groups.append(workload.group(i))
        if tracer is None:
            a, f, n = workload.check(i, result)
        else:
            with tracer.suspended():
                a, f, n = workload.check(i, result)
        attempted, failed, items = attempted + a, failed + f, items + n
        i += 1
        now = time.perf_counter()
        if between is not None:
            between(1.0 - (deadline - now) / seconds)
            deadline += time.perf_counter() - now
        if time.perf_counter() >= deadline:
            return latencies, groups, attempted, failed, items


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, n_ops):
    """Per-operation layer figures from the spans and counters of a traced phase."""
    from tracer import LAYERS, self_times

    selfs = self_times(tracer.spans)
    self_s, calls, whole = {}, {}, {}
    cn_self = 0.0
    for span in tracer.spans:
        if span.end is None:
            continue
        own = selfs[id(span)]
        self_s[span.layer] = self_s.get(span.layer, 0.0) + own
        calls[span.layer] = calls.get(span.layer, 0) + 1
        if span.name.startswith(("cli.figure.", "validation.")):
            whole[span.name] = whole.get(span.name, 0.0) + span.end - span.start
        if span.name == "pde_oracle.cn_solve":
            cn_self += own
    count = tracer.counters()
    out = {f"{name}.s": total / n_ops for name, total in whole.items()}
    for layer in LAYERS + ("cli",):
        out[f"{layer}.calls"] = calls.get(layer, 0) / n_ops
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n_ops
        out[f"{layer}.us_per_call"] = _ratio(self_s.get(layer, 0.0), calls.get(layer, 0), 1e6)
    for key in ("special_functions.elems", "transforms.spec_builds", "hpm_series.term_evals",
                "hpm_series.term_elems", "pde_oracle.solves", "pde_oracle.node_steps",
                "pde_oracle.residual_calls", "surface.rows_written", "surface.bytes_written"):
        out[key] = count.get(key, 0) / n_ops
    elems = count.get("special_functions.elems", 0)
    out["special_functions.elems_per_call"] = _ratio(elems, calls.get("special_functions", 0))
    out["special_functions.ns_per_elem"] = _ratio(self_s.get("special_functions", 0.0), elems, 1e9)
    out["pde_oracle.ns_per_node_step"] = _ratio(cn_self, count.get("pde_oracle.node_steps", 0), 1e9)
    out["surface.write_s"] = out["surface.self_s"]
    out["surface.us_per_row"] = _ratio(self_s.get("surface", 0.0),
                                       count.get("surface.rows_written", 0), 1e6)
    return out


def machine_record(seed):
    def read(path):
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if not index.startswith("index"):
            continue
        level, kind = read(f"{base}/{index}/level"), read(f"{base}/{index}/type")
        caches[f"L{level}-{kind}"] = read(f"{base}/{index}/size")
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, IndexError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "putpricer")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    import numpy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def load_metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tie_of(name):
    return next(((moves, where) for prefix, moves, where in LAYER_TIES
                 if name.startswith(prefix)), ("", ""))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "putpricer", "__init__.py")):
        print(f"error: no putpricer sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(f"{time.perf_counter() - start:.9f}")
        return 0
    workload = setup(args.workload, args.seed)
    from workloads import percentile_of_groups
    e2e_units, layer_units = load_metric_units()
    lines = [f"# perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(args.seed)}

    if args.trace == 0:
        # set-up is probed once before the measured window and then spread
        # through it, so the probes meet more than one state of the host;
        # their median is taken: a probe lasts about 0.2 s, and the fastest
        # of nine spread 20-30 % over twenty runs, the median 8-15 %
        probes = probe_setup(args, 1)

        def probe_when_due(share):
            due = min(SETUP_PROBES, 1 + int(share * (SETUP_PROBES - 1)))
            probes.extend(probe_setup(args, due - len(probes)))

        lat, groups, attempted, failed, items = measure(workload, args.seconds,
                                                        between=probe_when_due)
        probes += probe_setup(args, SETUP_PROBES - len(probes))
        setup_s = statistics.median(probes)
        record["setup_probes_s"] = probes
        computed = {
            "setup_s": setup_s,
            "op_ms": 1e3 * percentile_of_groups(lat, groups, workload.OP_SHARE),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": computed[name], "unit": unit}
                   for name, unit in e2e_units.items()}
        report = workload.report(lat, groups, items) + [
            ("setup_s", setup_s, "s"), ("peak_rss_mb", computed["peak_rss_mb"], "MB"),
            ("error_rate", failed / attempted, "1")]
        lines += [f"{name} {value:.6g} {unit}" for name, value, unit in report]
        lines.append(f"# operations={len(lat)} attempted={attempted} failed={failed}")
        record["report"] = {name: value for name, value, _ in report}
    else:
        from tracer import Tracer, instrument
        half = args.seconds / 2.0
        lat_a, groups_a, att_a, fail_a, _ = measure(workload, half)
        tracer = Tracer()
        restore = instrument(tracer)
        try:
            lat_b, groups_b, att_b, fail_b, _ = measure(workload, half, tracer)
        finally:
            restore()
        attempted, failed = att_a + att_b, fail_a + fail_b
        computed = layer_metrics(tracer, len(lat_b))
        computed["tracing.overhead_pct"] = 100.0 * (
            percentile_of_groups(lat_b, groups_b, 0.5)
            / percentile_of_groups(lat_a, groups_a, 0.5) - 1.0)
        metrics = {name: {"value": computed.get(name, 0.0), "unit": unit}
                   for name, unit in layer_units.items()}
        for name, entry in metrics.items():
            moves, where = tie_of(name)
            lines.append(f"{name} {entry['value']:.6g} {entry['unit']}  "
                         f"-> {moves} on {where}")
        lines.append(f"# traced operations={len(lat_b)} untraced={len(lat_a)} "
                     f"spans={len(tracer.spans)} attempted={attempted} failed={failed}")
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    lines.insert(1, "# machine " + json.dumps(record["machine"], sort_keys=True))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

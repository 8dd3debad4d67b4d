"""Wall-time benchmark of the ``hostrank`` command-line tool.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload (see ``workloads.py``) is a cycle of real ``hostrank`` invocations
(``python -m hostrank.cli`` with ``src`` on the path) on inputs generated from
the seed under ``perfbench/work/``. Invocations run one child process at a
time: a closed loop with one client. Whole cycles repeat until ``S`` seconds
have passed. Every invocation is timed from outside, its peak RSS is read with
``os.wait4``, and its outputs are checked; any failed check counts the
invocation as failed.

The host is shared and its speed drifts by a quarter or more within minutes,
in wall and CPU time alike. So every timed child (invocation or set-up probe)
is run between two runs of ``calibrate.py``, a fixed reference program that
does not import ``hostrank``, and the end-to-end times are host-normalised:
``wall * CAL_NOMINAL_S / mean(reference before, reference after)``, that is
seconds on a host where the reference takes ``CAL_NOMINAL_S``. A change to the
program moves its invocations and not the reference, so it shows in full.
Raw wall times are printed next to them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced cycles with cycles run through ``trace_child.py``, which wraps every
layer's public functions, and reports per-layer self times and counts.

Everything is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, CheckError, Op, Workload, sha256, strip_provenance

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# Typical wall seconds of calibrate.py on a 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4): the host speed that normalised times are given at.
CAL_NOMINAL_S = 0.30

# Per-layer metrics in the JSON result: times every workload exercises, and
# the work counts an optimisation is most likely to move. Times of layers only
# some workloads exercise, and fixed sizes, are printed in the table.
LAYER_TIMES = [
    "cli.import_s", "cli.main_self_s", "cli.write_s", "dataio.load_other_s",
    "indicators.load_hierarchy_s", "indicators.load_decision_matrix_s",
    "ahp.ahp_weights_s", "entropy.normalize_s", "entropy.entropy_weights_s",
    "combining.combine_weights_s", "combining.select_features_s", "combining.score_s",
    "pipeline.compute_weights_self_s", "selection.scaler_fit_s", "selection.transform_s",
]
LAYER_COUNTS = [
    "indicators.row_calls", "ahp.ahp_weights_calls", "combining.score_calls",
    "pipeline.compute_weights_calls", "selection.scaler_fit_calls",
    "selection.transform_calls", "grey.forecast_calls", "grey.fit_gm11_calls",
    "reporting.render_table_calls",
]
LAYER_RATIOS = ["selection.rescale_ratio", "trace.overhead_ratio"]

# Spans with children whose time metric is named as a self time (`_self_s`).
SELF_NAMED = {
    "cli.main", "pipeline.compute_weights", "pipeline.evaluate_alternatives",
    "selection.winter_filter", "grey.forecast", "sensitivity.factor_substitution",
}

# Intended split of traced op time between layers, checked on every traced run:
# (workload, layers, "min" or "max", share).
SPLIT_CHECKS = [
    ("cli_fixture", ("interpreter", "import", "cli", "dataio", "reporting"), "min", 0.5),
    ("cli_fixture", ("indicators", "selection", "pipeline"), "max", 0.15),
    ("matrix_5k", ("indicators", "selection", "pipeline"), "min", 0.5),
    ("matrix_5k", ("grey",), "max", 0.01),
    ("trials_500", ("sensitivity", "combining", "selection"), "min", 0.5),
    ("trials_500", ("grey",), "max", 0.01),
    ("winter_1k", ("grey",), "min", 0.25),
]


@dataclass
class Sample:
    op: int
    wall: float
    rss_kb: int
    ok: bool
    # Host-normalised wall seconds; equal to ``wall`` on uncalibrated runs.
    norm: float


class Runner:
    """Runs and checks one workload's invocations, one child at a time."""

    def __init__(self, root: Path, work: Path, workload: Workload) -> None:
        self.root, self.work, self.workload = root, work, workload
        self.outdir = work / "out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        HOSTRANK_OUTDIR=str(self.outdir))
        self.reference: dict[int, dict[str, str]] = {}
        # Wall seconds of the reference program's latest run, and of all of them.
        self.last_cal: float | None = None
        self.cal_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        # Every failed op and every other failed check, as one line each.
        self.failures: list[str] = []

    def spawn(self, cmd: list[str]) -> tuple[float, int, int, str]:
        """Run ``cmd`` to completion; wall seconds, exit code, peak RSS KiB, stderr."""
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return wall, proc.returncode, usage.ru_maxrss, stderr

    def calibrate(self) -> float:
        wall, rc, _, stderr = self.spawn(
            [sys.executable, str(HERE / "calibrate.py"), str(self.work / "calibrate.out")])
        if rc != 0:
            self.failures.append(f"calibrate.py: exit code {rc}: {stderr.strip()[-300:]}")
        self.cal_walls.append(wall)
        return wall

    def normalised(self, run):
        """``run()`` between two reference runs; its result and the factor that
        turns its wall seconds into host-normalised seconds."""
        before = self.calibrate() if self.last_cal is None else self.last_cal
        result = run()
        self.last_cal = self.calibrate()
        return result, 2.0 * CAL_NOMINAL_S / (before + self.last_cal)

    def run_op(self, index: int, op: Op, spans: Path | None = None) -> Sample:
        shutil.rmtree(self.outdir, ignore_errors=True)
        if spans is None:
            cmd = [sys.executable, "-m", "hostrank.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), str(index),
                   "--", *op.argv]
        wall, rc, rss, stderr = self.spawn(cmd)
        error = self.check(index, op, rc, stderr)
        self.attempted += 1
        if error:
            self.failed += 1
            self.failures.append(f"{op.name}: {error}")
        return Sample(index, wall, rss, error is None, wall)

    def check(self, index: int, op: Op, rc: int, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-300:]}"
        if "Traceback (most recent call last)" in stderr:
            return "traceback on stderr"
        present = {p.name for p in self.outdir.iterdir()} if self.outdir.is_dir() else set()
        if present != op.outputs:
            return f"missing or extra outputs: {sorted(present ^ op.outputs)}"
        files = {name: (self.outdir / name).read_text(encoding="utf-8") for name in op.outputs}
        digests = {n: sha256(strip_provenance(t).encode("utf-8")) for n, t in files.items()}
        reference = self.reference.get(index)
        if reference is None:
            try:
                op.check(files)
            except (CheckError, KeyError, ValueError) as exc:
                return f"invariant broken: {exc}"
            self.reference[index] = digests
        elif digests != reference:
            changed = sorted(n for n in digests if digests[n] != reference[n])
            return f"output bytes differ from the run's first op: {changed}"
        return None

    def run_cycles(self, seconds: float, traced: bool, calibrated: bool = False,
                   between=lambda elapsed: None) -> tuple[list[Sample], list[dict]]:
        """Untraced cycles, or untraced and traced cycles alternating, for ``seconds``.

        ``between(elapsed)`` runs before each cycle. With ``calibrated`` every
        untraced op runs between two reference runs and gets its ``norm``.
        """
        samples: list[Sample] = []
        cycles: list[dict] = []
        t0 = time.perf_counter()
        while not samples or time.perf_counter() - t0 < seconds:
            between(time.perf_counter() - t0)
            for i, op in enumerate(self.workload.cycle):
                if calibrated:
                    sample, factor = self.normalised(lambda: self.run_op(i, op))
                    sample.norm = sample.wall * factor
                else:
                    sample = self.run_op(i, op)
                samples.append(sample)
            if traced:
                cycles.append(self.traced_cycle())
        return samples, cycles

    def traced_cycle(self) -> dict:
        spans_path = self.work / "spans.json"
        cycle = {"walls": [], "times": {}, "counts": {}, "import_s": 0.0, "ok": True}
        for i, op in enumerate(self.workload.cycle):
            sample = self.run_op(i, op, spans=spans_path)
            cycle["ok"] &= sample.ok
            if not spans_path.is_file():
                cycle["walls"].append(sample.wall)
                continue
            data_line, dump_line = spans_path.read_text(encoding="utf-8").split("\n")
            spans_path.unlink()
            cycle["walls"].append(sample.wall - json.loads(dump_line)["dump_s"])
            data = json.loads(data_line)
            cycle["import_s"] += data["import_s"]
            for name, value in self_times(data).items():
                cycle["times"][name] = cycle["times"].get(name, 0.0) + value
            for name, value in data["counts"].items():
                cycle["counts"][name] = cycle["counts"].get(name, 0) + value
        return cycle


def self_times(data: dict) -> dict[str, float]:
    """Self time per span name: duration minus the time of direct child spans."""
    start, end, parent = data["start"], data["end"], data["parent"]
    child = [0.0] * len(start)
    for j, p in enumerate(parent):
        if p >= 0:
            child[p] += end[j] - start[j]
    out: dict[str, float] = {}
    for j, nid in enumerate(data["span_name"]):
        name = data["names"][nid]
        out[name] = out.get(name, 0.0) + (end[j] - start[j]) - child[j]
    return out


def time_metric(span: str) -> str:
    return span + ("_self_s" if span in SELF_NAMED else "_s")


def tail(walls: list[float]) -> tuple[int, float]:
    """(k, value): the mean of the k slowest ops, the slowest quarter rounded up.

    A single nearest-rank percentile is not used: ``cli_fixture`` ops fall in
    two latency clusters (six fast subcommands, two slow ones), so a percentile
    picked from the op count jumps between them as the count changes. Runs end
    on whole cycles, so the slowest quarter of that workload is its slow cluster.
    """
    k = -(-len(walls) // 4)
    return k, statistics.fmean(sorted(walls)[-k:])


class SetupProbe:
    """Times fresh interpreters that import the CLI and load the workload's inputs.

    The probes are spread evenly over the run, between cycles, so that they see
    the same host drift as the ops.
    """

    def __init__(self, runner: Runner, workload: Workload, seconds: float) -> None:
        self.runner, self.seconds = runner, seconds
        self.cmd = [sys.executable, str(HERE / "setup_child.py"),
                    str(workload.setup_config), *workload.setup_loaders]
        # Raw and host-normalised wall seconds of each probe.
        self.times: list[float] = []
        self.norms: list[float] = []
        self.broken = False
        # The first probe fills the bytecode and file caches, as an installed tool has them.
        self.run()
        self.times.clear()
        self.norms.clear()

    def run(self) -> None:
        (wall, rc, _, stderr), factor = self.runner.normalised(lambda: self.runner.spawn(self.cmd))
        if rc != 0:
            self.broken = True
            self.runner.failures.append(f"set-up probe: exit code {rc}: {stderr.strip()[-300:]}")
        self.times.append(wall)
        self.norms.append(wall * factor)

    def between_cycles(self, elapsed: float) -> None:
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if not self.broken and len(self.times) < SETUP_REPEATS and elapsed >= due:
            self.run()

    def finish(self) -> tuple[list[float], list[float]]:
        """Raw and normalised probe times; empty if a probe failed."""
        while not self.broken and len(self.times) < SETUP_REPEATS:
            self.run()
        return ([], []) if self.broken else (self.times, self.norms)


def environment(args: argparse.Namespace) -> list[str]:
    import numpy

    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  nproc {os.cpu_count()}"
        f"  platform {platform.platform()}",
        f"workload {args.workload}  seed {args.seed}  run length {args.seconds} s"
        f"  trace {args.trace}  loop: closed, 1 client, 1 child process at a time",
    ]


def print_rows(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, detail in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {unit:<6} {detail}")


def end_to_end(runner: Runner, workload: Workload, seconds: float) -> dict:
    probe = SetupProbe(runner, workload, seconds)
    samples, _ = runner.run_cycles(seconds, traced=False, calibrated=True,
                                   between=probe.between_cycles)
    setup_raw, setup = probe.finish()
    walls = [s.wall for s in samples]
    norms = [s.norm for s in samples]
    k, tail_value = tail(norms)
    _, tail_raw = tail(walls)
    items = sum(workload.cycle[s.op].items for s in samples)
    n = len(samples)
    failed = sum(not s.ok for s in samples)
    # A failed probe has already made the run incorrect; 0 marks no measurement.
    setup_value = statistics.median(setup) if setup else 0.0
    setup_raw_value = statistics.median(setup_raw) if setup_raw else 0.0
    rows = [
        ("setup_s", setup_value, "s", f"median of {len(setup)} fresh interpreters; "
         f"raw {setup_raw_value:.4f} s"),
        ("op_p50_s", statistics.median(norms), "s",
         f"p50 of {n} ops; raw {statistics.median(walls):.4f} s"),
        ("op_tail_s", tail_value, "s",
         f"mean of the slowest {k} of {n} ops (beyond p75); raw {tail_raw:.4f} s"),
        ("items_per_s", items / sum(norms), "1/s",
         f"{items} items in {sum(norms):.3f} s of ops; raw {items / sum(walls):.4g} 1/s"),
        # The median, not the maximum: now and then one op peaks several MB above
        # the rest of its run, which made the maximum jump between runs.
        ("peak_rss_mb", statistics.median(s.rss_kb for s in samples) / 1024.0, "MB",
         f"median of {n} ops' peak RSS; max {max(s.rss_kb for s in samples) / 1024.0:.1f} MB"),
    ]
    cal = runner.cal_walls
    print("op wall times (s, in run order): " + " ".join(f"{w:.3f}" for w in walls))
    print("op host-normalised times (s): " + " ".join(f"{w:.3f}" for w in norms))
    print(f"reference program: {len(cal)} runs, median {statistics.median(cal):.4f} s, "
          f"min {min(cal):.4f} s, max {max(cal):.4f} s; nominal {CAL_NOMINAL_S} s")
    print("end-to-end metrics (untraced, host-normalised):")
    print_rows(rows + [("error_rate", failed / n, "ratio", f"{failed} of {n} ops failed")])
    # peak_rss_mb is printed but not gated: on some runs every trials_500 op
    # peaks 8.7 MB higher than on others, with the same seed and code.
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
            if name != "peak_rss_mb"}


def per_layer(runner: Runner, workload: Workload, seconds: float) -> dict:
    samples, cycles = runner.run_cycles(seconds, traced=True)
    ok_cycles = [c for c in cycles if c["ok"]] or cycles
    first = ok_cycles[0]["counts"]
    for c in ok_cycles[1:]:
        if c["counts"] != first:
            runner.failures.append("traced counts differ between cycles of one run")
            break
    for name, expected in workload.expected_counts.items():
        if first.get(name, 0) != expected:
            runner.failures.append(
                f"traced count {name} = {first.get(name, 0)}, expected {expected}")

    n_cycles = len(ok_cycles)
    span_names = sorted({s for c in ok_cycles for s in c["times"]})
    times = {"cli.import_s": statistics.median(c["import_s"] for c in ok_cycles)}
    for span in span_names:
        times[time_metric(span)] = statistics.median(c["times"].get(span, 0.0) for c in ok_cycles)
    counts = dict(first)
    scaled = counts.get("selection.columns_scaled", 0)
    distinct = counts.get("selection.columns_distinct", 0)
    gated = counts.get("selection.gate_gated", 0)
    passed = counts.get("selection.gate_passed", 0)
    untraced = statistics.median(s.wall for s in samples)
    traced_walls = [w for c in ok_cycles for w in c["walls"]]
    ratios = {
        "selection.rescale_ratio": (scaled / distinct if distinct else 0.0,
                                    f"{scaled} columns scaled / {distinct} distinct"),
        "selection.gate_pass_ratio": (passed / gated if gated else 0.0,
                                      f"{passed} passed / {gated} gated"),
        "trace.overhead_ratio": (statistics.median(traced_walls) / untraced,
                                 f"p50 of {len(traced_walls)} traced / "
                                 f"p50 of {len(samples)} untraced ops"),
    }

    print(f"per-layer metrics (traced; times are self times, median of {n_cycles} "
          f"cycles of {len(workload.cycle)} op(s); counts are per cycle):")
    rows = [(name, value, "s", f"median of {n_cycles} cycles")
            for name, value in sorted(times.items())]
    rows += [(name, value, "count", "per cycle") for name, value in sorted(counts.items())]
    rows += [(name, value, "ratio", detail) for name, (value, detail) in ratios.items()]
    print_rows(rows)

    shares = layer_shares(ok_cycles)
    print("share of traced op time by layer (all traced cycles):")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {100.0 * share:6.2f}%")
    for name, layers, kind, bound in SPLIT_CHECKS:
        if name != workload.name:
            continue
        share = sum(shares.get(layer, 0.0) for layer in layers)
        held = share >= bound if kind == "min" else share <= bound
        print(f"split check: {'+'.join(layers)} {'>=' if kind == 'min' else '<='} "
              f"{100 * bound:.0f}%: {100 * share:.2f}% {'holds' if held else 'DOES NOT HOLD'}")

    metrics = {name: {"value": times.get(name, 0.0), "unit": "s"} for name in LAYER_TIMES}
    metrics.update({name: {"value": counts.get(name, 0), "unit": "count"} for name in LAYER_COUNTS})
    metrics.update({name: {"value": ratios[name][0], "unit": "ratio"} for name in LAYER_RATIOS})
    return metrics


def layer_shares(cycles: list[dict]) -> dict[str, float]:
    """Share of traced op wall time per module, plus interpreter start and import."""
    total = sum(sum(c["walls"]) for c in cycles)
    by_layer: dict[str, float] = {}
    for c in cycles:
        for span, value in c["times"].items():
            layer = span.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + value
        by_layer["import"] = by_layer.get("import", 0.0) + c["import_s"]
    by_layer["interpreter"] = total - sum(by_layer.values())
    return {layer: value / total for layer, value in by_layer.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("src/hostrank/cli.py", "fixtures/run.json", "fixtures/winter_pool.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a hostrank checkout",
                  file=sys.stderr)
            return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, work, args.seed)

    for line in environment(args):
        print(line)
    for path in workload.generated:
        print(f"input {path.relative_to(root)} sha256 {sha256(path.read_bytes())}")
    for note in workload.notes:
        print(note)

    runner = Runner(root, work, workload)
    if args.trace:
        metrics = per_layer(runner, workload, args.seconds)
    else:
        metrics = end_to_end(runner, workload, args.seconds)

    for index, digests in sorted(runner.reference.items()):
        for name, digest in sorted(digests.items()):
            print(f"output {workload.cycle[index].name} {name} sha256 {digest}"
                  " (provenance removed)")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    shutil.rmtree(runner.outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

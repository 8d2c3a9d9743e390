"""End-to-end and per-layer benchmark of the ``cshift`` command.

Usage, from the repository root:

    python3 bench/run.py --workload wide-aps --seed 1 --seconds 20 --trace 0

One client runs the workload's command list one command at a time (a
closed loop), each command in a fresh ``python -m cshift.cli`` process, in
whole passes: at least two, and more until the passes have taken
``--seconds``.
Every output is checked against computations made in ``checks.py`` and
compared byte for byte with the first pass.

``--trace 1`` instead runs one set-up and the command list in this
process through ``cshift.cli.main``, first untraced and then with spans
around every public function (see ``tracing.py``), and reports per-layer
self times, call counts and work counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment
and per-command timings go to the line before it and to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    """Cap BLAS thread counts at nproc, before numpy is imported."""
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))


# Set-up runs before the passes (at least 3 times and 1 s) and again after
# each pass (at least once and 0.25 s). Spreading the set-ups over the
# whole run keeps their median steady when the machine's speed drifts
# over seconds, which a short set-up would otherwise catch in one state.
SETUP_BEFORE = (3, 1.0)
SETUP_BETWEEN = (1, 0.25)
MIN_PASSES = 2
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("cmd_p50_s", "s"), ("cmd_max_s", "s"),
              ("peak_rss_mb", "MB")]

# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("scores.load_dataset.self_s", "s"), ("scores.load_dataset.calls", "count"),
    ("scores.load_dataset.bytes", "B"),
    ("scores.ScoreMatrix.self_s", "s"), ("scores.ScoreMatrix.calls", "count"),
    ("scores.ScoreMatrix.cells", "count"), ("scores.save_dataset.self_s", "s"),
    ("conformal.conformity_scores.tps.self_s", "s"), ("conformal.conformity_scores.aps.self_s", "s"),
    ("conformal.conformity_scores.raps.self_s", "s"), ("conformal.conformity_scores.calls", "count"),
    ("conformal.conformity_scores.cells", "count"),
    ("conformal.calibrate.self_s", "s"), ("conformal.calibrate.calls", "count"),
    ("conformal.evaluate.self_s", "s"), ("conformal.evaluate.calls", "count"),
    ("qtc.recalibrate.self_s", "s"), ("qtc.recalibrate.calls", "count"),
    ("qtc.estimate.self_s", "s"), ("qtc.estimate.calls", "count"),
    ("qtc.quantile_q.self_s", "s"), ("qtc.quantile_q.calls", "count"),
    ("qtc.top_confidences.self_s", "s"), ("qtc.top_confidences.calls", "count"),
    ("regression.build_corpus.self_s", "s"),
    ("regression.synthetic_shift.self_s", "s"), ("regression.synthetic_shift.calls", "count"),
    ("regression.extract_features.self_s", "s"), ("regression.extract_features.calls", "count"),
    ("regression.train.self_s", "s"), ("regression.train.epochs_per_s", "1/s"),
    ("regression.predict_tau.self_s", "s"),
    ("toymodel.classifier_error_rate.self_s", "s"), ("toymodel.classifier_error_rate.calls", "count"),
    ("toymodel.sample.self_s", "s"), ("toymodel.sample.draws", "count"),
    ("toymodel.oracle_beta.self_s", "s"),
    ("toymodel.run_theorem_trial.self_s", "s"), ("toymodel.run_theorem_trial.calls", "count"),
    ("util.row_uniforms.self_s", "s"), ("util.row_uniforms.calls", "count"),
    ("util.derive_seed.calls", "count"),
    ("conformal.pass_share", "%"), ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
]


def environment():
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                   cpu)
    mem_mb = None
    with contextlib.suppress(OSError), open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                mem_mb = int(line.split()[1]) // 1024
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "mem_available_mb": mem_mb,
    }


def file_digests(directory: Path):
    import hashlib

    return {p.name: hashlib.blake2b(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def run_command(argv, env, err_path: Path):
    """Run one command in a fresh process; (wall s, peak RSS MB, exit code)."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cshift.cli", *argv], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, proc.returncode


def run_in_process(argv):
    from cshift import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            return exc.code if isinstance(exc.code, int) else 2


def import_seconds(env):
    code = ("import time; t = time.perf_counter(); import cshift.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(IMPORT_REPEATS)]
    return statistics.median(runs)


def account(commands, passes, digests, failures):
    """(attempted, failed, nondeterministic outputs) over all passes.

    A command fails in a pass when it exits non-zero, when a check on the
    first pass's output of it failed (``failures`` holds check failures
    only), or when its output differs from the first pass.
    """
    attempted = failed = 0
    differing = []
    for p, (codes, digest) in enumerate(zip(passes, digests)):
        for c, code in zip(commands, codes):
            attempted += 1
            changed = [f for f in c.outputs if digest.get(f) != digests[0].get(f)]
            if changed:
                differing.append(f"pass {p}: {c.name} wrote different bytes to {changed}")
            failed += bool(code != 0 or failures[c.name] or changed)
    return attempted, failed, differing


def benchmark(workload, seed, seconds, work: Path, env, record):
    from checks import check_pass

    in_dir = work / "inputs"
    in_dir.mkdir()
    setups, input_digests = [], []

    def set_up(min_repeats, min_s):
        spent = 0.0
        for repeat in itertools.count():
            if repeat >= min_repeats and spent >= min_s:
                return inputs
            start = time.perf_counter()
            inputs = workload.make_inputs(seed, in_dir)
            setups.append(time.perf_counter() - start)
            spent += setups[-1]
            input_digests.append(file_digests(in_dir))

    inputs = set_up(*SETUP_BEFORE)
    passes, walls, rss, digests = [], [], [], []
    while len(passes) < MIN_PASSES or sum(walls) < seconds:
        out = work / f"pass{len(passes)}"
        out.mkdir()
        commands = workload.commands(seed, inputs, out)
        pass_start = time.perf_counter()
        results = [run_command(c.argv, env, work / f"{out.name}-{c.name}.err") for c in commands]
        walls.append(time.perf_counter() - pass_start)
        passes.append([code for _, _, code in results])
        rss.append([r for _, r, _ in results])
        record["commands"].append({c.name: {"wall_s": w, "peak_rss_mb": r, "exit": code}
                                   for c, (w, r, code) in zip(commands, results)})
        digests.append(file_digests(out))
        set_up(*SETUP_BETWEEN)
    stable_inputs = all(d == input_digests[0] for d in input_digests)
    first = workload.commands(seed, inputs, work / "pass0")
    failures = check_pass(workload.name, seed, inputs, work / "pass0", first)
    attempted, failed, differing = account(first, passes, digests, failures)
    correct = stable_inputs and not differing and not any(failures.values())
    for p, codes in enumerate(passes):
        for c, code in zip(first, codes):
            if code != 0:
                err = (work / f"pass{p}-{c.name}.err").read_text(errors="replace")[-300:]
                failures[c.name].append(f"pass {p}: exit {code}; stderr ends: {err}")
    per_pass = record["commands"]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(
            statistics.median(v["wall_s"] for v in p.values()) for p in per_pass),
        "cmd_max_s": statistics.median(max(v["wall_s"] for v in p.values()) for p in per_pass),
        "peak_rss_mb": statistics.median(max(r) for r in rss),
    }
    record.update(setup_s=setups, pass_s=walls, failures=failures, nondeterministic=differing,
                  inputs_identical_across_setups=stable_inputs)
    return correct, attempted, failed, {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced(workload, seed, work: Path, env, record):
    from checks import check_pass
    from tracing import Tracer

    tracer = Tracer()
    in_dir = work / "inputs"
    in_dir.mkdir()
    tracer.install()
    try:
        tracer.open("bench.setup")
        inputs = workload.make_inputs(seed, in_dir)
        tracer.close()
    finally:
        tracer.uninstall()

    def one_pass(out):
        out.mkdir()
        commands = workload.commands(seed, inputs, out)
        start = time.perf_counter()
        codes = [run_in_process(c.argv) for c in commands]
        return commands, codes, time.perf_counter() - start

    _, plain_codes, plain_s = one_pass(work / "untraced")
    tracer.install()
    try:
        tracer.open("bench.pass")
        commands, codes, _ = one_pass(work / "traced")
        tracer.close()
    finally:
        tracer.uninstall()
    pass_span = next(s for s in tracer.spans if s[0] == "bench.pass")
    traced_s = pass_span[2] - pass_span[1]

    failures = check_pass(workload.name, seed, inputs, work / "traced", commands)
    digests = [file_digests(work / "untraced"), file_digests(work / "traced")]
    attempted, failed, differing = account(commands, [plain_codes, codes], digests, failures)
    correct = not differing and not any(failures.values())
    for label, pass_codes in (("untraced", plain_codes), ("traced", codes)):
        for c, code in zip(commands, pass_codes):
            if code != 0:
                failures[c.name].append(f"{label} pass: exit {code}")

    self_s = tracer.self_times()
    counts = tracer.counts
    values = {"cli.import_s": import_seconds(env)}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif unit in ("count", "B"):
            values[name] = counts.get(name, 0)
    train_s = sum(e - s for n, s, e, _ in tracer.spans if n == "regression.train")
    values["regression.train.epochs_per_s"] = (counts["regression.train.epochs"] / train_s
                                               if train_s else 0.0)
    conformal_s = sum(v for k, v in self_s.items() if k.startswith("conformal."))
    values["conformal.pass_share"] = 100.0 * conformal_s / traced_s
    values["trace.pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    record.update(untraced_pass_s=plain_s, failures=failures, nondeterministic=differing,
                  self_s=dict(self_s), counts=dict(counts), spans=tracer.dump())
    return correct, attempted, failed, {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cshift" / "cli.py").is_file():
        print(f"error: no cshift sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import LEFT_OUT, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "shape": workload.shape,
              "left_out": LEFT_OUT, "env": environment(), "commands": []}
    (BENCH / ".work").mkdir(exist_ok=True)
    work = BENCH / ".work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            outcome = traced(workload, args.seed, work, env, record)
        else:
            outcome = benchmark(workload, args.seed, args.seconds, work, env, record)
        correct, attempted, failed, metrics = outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: record[k] for k in ("env", "failures", "nondeterministic")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

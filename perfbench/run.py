"""Closed-loop benchmark of mzvident's time to verdict.

    python3 perfbench/run.py --workload hoffman --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, no threads: each op is issued only after the
previous one returned.  An op feeds expression text to the engine
(parse -> verify -> serialize, or the same through a `python -m
mzvident.cli` subprocess for deep-cli) and checks the answer against the
label its input was built with.  Inputs come from --seed and never repeat
within a run.  Rounds of ops with a fixed cost mix run while another round
fits in --seconds, and until the tail percentile has at least ten samples
beyond it.

--trace 0 reports end-to-end metrics.  --trace 1 runs every op untraced and
traced (alternating which goes first), installs timing wrappers on the
engine's layer functions and reports per-layer self times, work counts and
the tracing overhead; spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Op text for the CLI's @file argument; one file per benchmark process, so
# concurrent runs cannot swap inputs.
OP_FILE = OUT / f"op-{os.getpid()}.txt"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Op  # noqa: E402

# Measuring stops starting new ops after this many seconds, whatever
# --seconds and the minimum op count ask for, so a run ends within the
# 180 s a run may take even when every op hits its time limit.
HARD_CAP_S = 100.0
# setup_s is the median of at least this many probes, one before every
# round and the rest at the end, so they sample the whole run's machine
# conditions rather than one moment of it.
SETUP_PROBES = 15

# The set-up probe: a fresh interpreter imports the package and runs one
# tiny op through all three methods, so lazily built tables count too.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import mzvident, mzvident.cli
from mzvident import parse, serialize, verify
text = ("2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
        " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)")
report = verify(parse(text))
serialize(report, "structured")
elapsed = time.perf_counter() - t0
if not report.is_identity:
    raise SystemExit("set-up probe: wrong verdict")
print(elapsed)
"""

END_TO_END = {
    "exprs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: times and counts are means per traced op.
PER_LAYER = {
    "parsing.parse_s": "s/op",
    "parsing.parse_chars": "count/op",
    "parsing.serialize_s": "s/op",
    "parsing.serialize_bytes": "B/op",
    "algebra.normalize_s": "s/op",
    "algebra.atom_products": "count/op",
    "algebra.canonical_keys": "count/op",
    "ratfun.build_s": "s/op",
    "ratfun.zero_test_s": "s/op",
    "ratfun.lcd_factors": "count/op",
    "ratfun.lcd_degree": "count/op",
    "numeric.residual_s": "s/op",
    "numeric.atom_evals": "count/op",
    "numeric.distinct_atom_ratio": "ratio",
    "numeric.distinct_suffix_ratio": "ratio",
    "identities.verify_self_s": "s/op",
    "identities.disagreements": "count",
    "cli.self_s": "s/op",
    "cli.process_s": "s/op",
    "cli.startup_s": "s/op",
    "trace.overhead_s": "s/op",
}

class OpTimeout(Exception):
    pass


class WrongAnswer(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have passed."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"over the {seconds:.0f} s op limit")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MZV_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe() -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


# --- checking answers -----------------------------------------------------------


def expected_exit(op: Op) -> int:
    return 0 if op.command == "normalize" or op.label else 1


def check_output(op: Op, out: str) -> None:
    doc = json.loads(out)
    if op.command == "verify":
        want = "identity" if op.label else "not-identity"
        if doc.get("verdict") != want:
            raise WrongAnswer(f"verdict {doc.get('verdict')!r}, built as {want!r}")
        return
    got = {
        tuple(sum(1 << (j - 1) for j in part) for part in entry["parts"]): entry["coeff"]
        for entry in doc["coeffs"]
    }
    if got != op.expected:
        raise WrongAnswer(f"canonical form differs from the reference expansion "
                          f"({len(got)} vs {len(op.expected)} keys)")


# --- op runners ---------------------------------------------------------------------


class InProcess:
    """parse -> verify -> serialize in this interpreter."""

    def __init__(self, tracer=None):
        from mzvident import parse, serialize, verify

        if tracer is None:
            self.parse, self.verify, self.serialize = parse, verify, serialize
        else:
            self.parse = tracer.wrap("parsing.parse", parse)
            self.verify = tracer.wrap("identities.verify", verify)
            self.serialize = tracer.wrap("parsing.serialize", serialize)

    def __call__(self, op: Op, limit: float) -> float:
        # Each op starts without garbage left by earlier ops, as a fresh CLI
        # process would; otherwise collector pauses and peak memory drift
        # with the history of the run.
        gc.collect()
        with time_limit(limit):
            t0 = time.perf_counter()
            report = self.verify(self.parse(op.text), op.methods)
            out = self.serialize(report, "structured")
            elapsed = time.perf_counter() - t0
        check_output(op, out)
        return elapsed


def cli_argv(op: Op) -> list[str]:
    """CLI arguments for an op, whose text is handed over in OP_FILE."""
    OP_FILE.write_text(op.text, encoding="utf-8")
    argv = [op.command, f"@{OP_FILE}", "--format", "structured"]
    if op.command == "verify":
        argv += ["--methods", ",".join(op.methods)]
    return argv


class Subprocess:
    """`python -m mzvident.cli` in a fresh process per op."""

    def __call__(self, op: Op, limit: float) -> float:
        argv = [sys.executable, "-m", "mzvident.cli", *cli_argv(op)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv,
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=limit)
        elapsed = time.perf_counter() - t0
        if proc.returncode != expected_exit(op):
            raise WrongAnswer(f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}")
        check_output(op, proc.stdout)
        return elapsed


class Replay:
    """The CLI's own entry point, `cli_main(argv)`, run in this process."""

    def __init__(self, tracer=None):
        from mzvident.cli import cli_main

        self.main = cli_main if tracer is None else tracer.wrap("cli.main", cli_main)

    def __call__(self, op: Op, limit: float) -> float:
        argv = cli_argv(op)
        buf = io.StringIO()
        gc.collect()
        with time_limit(limit), redirect_stdout(buf):
            t0 = time.perf_counter()
            code = self.main(argv)
            elapsed = time.perf_counter() - t0
        if code != expected_exit(op):
            raise WrongAnswer(f"cli_main returned {code}")
        check_output(op, buf.getvalue())
        return elapsed


def required_spans(op: Op, in_process: bool) -> set[str]:
    names = {"parsing.parse", "parsing.serialize"}
    if not in_process:
        names.add("cli.main")
    if op.command == "normalize":
        return names | {"algebra.normalize"}
    names |= {"identities.verify", "algebra.is_partition_identity", "algebra.normalize"}
    if "rational" in op.methods:
        names |= {"ratfun.build", "ratfun.zero_test"}
    if "numeric" in op.methods:
        names.add("numeric.residual")
    return names


# --- the closed loop ----------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def run_loop(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Issue rounds of ops until time is up; return what was measured."""
    from tracer import Tracer, TracerError, require_spans

    in_process = workload.in_process
    tracer = Tracer() if trace else None
    plain = InProcess() if in_process else Subprocess()
    if trace:
        # In-process workloads compare the op with and without wrappers;
        # deep-cli compares in-process replays of the CLI, and keeps the
        # subprocess time to split off interpreter start-up.  The wrappers
        # on engine modules are installed only around the traced call.
        untraced = plain if in_process else Replay()
        traced_runner = InProcess(tracer) if in_process else Replay(tracer)

        def traced(op: Op, limit: float) -> float:
            with tracer:
                return traced_runner(op, limit)
    run = {"latencies": [], "failures": Counter(), "attempted": 0, "busy_s": 0.0, "setup": [],
           "props": [], "totals": Counter(), "traced_s": 0.0, "untraced_s": 0.0,
           "tracer": tracer}
    start = time.perf_counter()
    hard_end = start + HARD_CAP_S

    def limit() -> float:
        return max(1.0, min(workload.op_limit_s, hard_end - time.perf_counter()))

    if not trace:
        setup_probe()  # compiles bytecode in a fresh checkout; not counted
    for ops in workload.rounds(seed):
        if not trace:
            run["setup"].append(setup_probe())
        round_start = time.perf_counter()
        for op in ops:
            run["attempted"] += 1
            run["props"].append(op.props)
            first = len(tracer.spans) if trace else 0
            t0 = time.perf_counter()
            latency = None
            try:
                if not trace:
                    latency = plain(op, limit())
                else:
                    tracer.op = run["attempted"]
                    if not in_process:
                        run["totals"]["cli.process_s"] += plain(op, limit())
                    order = (untraced, traced) if run["attempted"] % 2 else (traced, untraced)
                    times = {runner is traced: runner(op, limit()) for runner in order}
                    names = tracer.account(first, run["totals"])
                    require_spans(names, required_spans(op, in_process))
                    run["traced_s"] += times[True]
                    run["untraced_s"] += times[False]
                    latency = times[False]
            except TracerError:
                raise
            except (OpTimeout, subprocess.TimeoutExpired):
                run["failures"]["timeout"] += 1
            except WrongAnswer as e:
                run["failures"]["wrong"] += 1
                print(f"op {run['attempted']}: wrong answer: {e}", file=sys.stderr)
            except Exception as e:  # an engine crash fails the op, not the run
                run["failures"]["error"] += 1
                print(f"op {run['attempted']}: {type(e).__name__}: {e}", file=sys.stderr)
            if latency is None:
                run["busy_s"] += time.perf_counter() - t0
                if trace:
                    tracer.forget(first)
            else:
                run["busy_s"] += latency
                run["latencies"].append(latency)
            if time.perf_counter() >= hard_end:
                break
        # Start another round only if it can finish within --seconds (the
        # last round's length predicts it), unless the tail percentile
        # still lacks samples.
        now = time.perf_counter()
        enough = trace or run["attempted"] >= workload.min_ops()
        if (now + (now - round_start) - start > seconds and enough) or now >= hard_end:
            break
    run["wall_s"] = time.perf_counter() - start
    while not trace and len(run["setup"]) < SETUP_PROBES:
        run["setup"].append(setup_probe())
    return run


# --- reporting ------------------------------------------------------------------------


def input_properties(props: list[dict]) -> dict:
    """Properties of the inputs a run issued; reuse ratios over verify ops,
    whose numeric pass they describe."""
    verifies = [p for p in props if p["command"] == "verify"]

    def pooled(key: str) -> int:
        return sum(p[key] for p in verifies)

    return {
        "universe_n": sorted({p["n"] for p in props}),
        "terms_mean": statistics.fmean(p["terms"] for p in props),
        "max_atom_depth": max(p["max_depth"] for p in props),
        "distinct_atoms_per_atom_eval": pooled("distinct_atoms") / pooled("atom_evals"),
        "distinct_suffixes_per_dp_level": pooled("distinct_suffixes") / pooled("dp_levels"),
        "lcd_factors_mean": statistics.fmean(p["lcd_factors"] for p in props),
        "repeated_input_share": 1 - len({p["digest"] for p in props}) / len(props),
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(workload, run: dict) -> dict:
    lat = sorted(run["latencies"])
    if not lat:
        return {}
    tail = percentile(lat, workload.tail_pct) if len(lat) > 1 else lat[-1]
    return {
        "exprs_per_s": len(lat) / run["busy_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb(workload.in_process),
        "setup_s": statistics.median(run["setup"]),
    }


def per_layer_metrics(workload, run: dict) -> dict:
    t = run["totals"]
    ops = len(run["latencies"])
    if not ops:
        return {}
    t["numeric.distinct_atom_ratio"] = t["numeric.distinct_atoms"] / max(1, t["numeric.atom_evals"])
    t["numeric.distinct_suffix_ratio"] = t["numeric.distinct_suffixes"] / max(1, t["numeric.dp_levels"])
    if not workload.in_process:
        t["cli.startup_s"] = t["cli.process_s"] - run["untraced_s"]
    t["trace.overhead_s"] = run["traced_s"] - run["untraced_s"]
    return {name: t[name] / ops if unit.endswith("/op") else t[name] for name, unit in PER_LAYER.items()}


def print_layers(workload, run: dict, m: dict) -> None:
    """Self time per layer and which layers dominate the op."""
    layers = {
        "parsing": m["parsing.parse_s"] + m["parsing.serialize_s"],
        "algebra": m["algebra.normalize_s"],
        "ratfun": m["ratfun.build_s"] + m["ratfun.zero_test_s"],
        "numeric": m["numeric.residual_s"],
        "identities": m["identities.verify_self_s"],
        "cli": m["cli.self_s"] + m["cli.startup_s"],
    }
    ops = len(run["latencies"])
    # The spans come from the traced executions, so shares are of those.
    op_s = run["traced_s"] / ops if workload.in_process else m["cli.process_s"]
    print(f"layer self time per op (op {op_s:.4f} s, {ops} traced ops):")
    for name, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<11} {s:10.5f} s  {100 * s / op_s:5.1f}%")
    top, share = [], 0.0
    for name, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        if share >= 0.75:
            break
        top.append(name)
        share += s / op_s
    print(f"dominant layers: {' + '.join(top)} ({100 * share:.0f}% of op time)")
    print(f"tracing overhead: {m['trace.overhead_s']:.5f} s per op "
          f"({100 * m['trace.overhead_s'] / (run['untraced_s'] / ops):.1f}% of the untraced op)")


def report(workload, args, run: dict, metrics: dict, units: dict) -> dict:
    lat = run["latencies"]
    failed = sum(run["failures"].values())
    print(f"workload: {workload.name} -- {workload.why}")
    print(f"seed {args.seed}, {args.seconds:g} s requested, {run['wall_s']:.1f} s measured, "
          f"trace {args.trace}; closed loop, 1 client, nproc {os.cpu_count()}, "
          f"Python {platform.python_version()} ({platform.machine()})")
    print("inputs: " + json.dumps(input_properties(run["props"])))
    print(f"ops: {run['attempted']} attempted, {len(lat)} ok, failed {dict(run['failures'])}, "
          f"op_failure_ratio {failed / run['attempted']:.4f}")
    if not args.trace and lat:
        beyond = sum(1 for x in lat if x > metrics["latency_tail_s"])
        print(f"latency samples: {len(lat)}; latency_tail_s is p{workload.tail_pct} "
              f"with {beyond} samples beyond it")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.6f} {units[name]}")
    if args.trace and lat:
        print_layers(workload, run, metrics)
    return {
        "correct": run["failures"]["wrong"] + run["failures"]["error"] == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mzvident" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    try:
        run = run_loop(workload, args.seed, args.seconds, trace=bool(args.trace))
    finally:
        OP_FILE.unlink(missing_ok=True)
    if args.trace:
        metrics, units = per_layer_metrics(workload, run), PER_LAYER
        run["tracer"].write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics, units = end_to_end_metrics(workload, run), END_TO_END
    print(json.dumps(report(workload, args, run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

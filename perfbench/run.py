#!/usr/bin/env python3
"""chatmine benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 35 --trace 0

Run from the repository root; chatmine is imported from `src/`. The run
checks the fixed checkpoints' hashes, times set-up in fresh interpreters,
builds the workload's inputs from the seed, warms up on a small input, then
repeats passes of the workload's CLI verbs until the next pass would end
past `--seconds`. Every pass's outputs are checked, and repeated passes must
produce byte-identical files. A reference kernel timed throughout the run
gives the machine's speed, and times are reported at nominal speed
(`reference.py`).

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` passes alternate between untraced and traced (layer wrappers
installed) and the last line reports per-layer metrics per traced pass,
plus the tracing overhead. The lines before it are a readable table; the
full record goes to `.perfbench_work/results/`.
"""

import os

# one BLAS thread for this process and every interpreter it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
CHATMINE_SEED = "0"


def _fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _peak_rss_mb():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": "one benchmark process; set-up probes run one at a time",
    }


def _verify_checkpoints(ckpt_dir):
    recipe = json.loads((ckpt_dir / "recipe.json").read_text(encoding="utf-8"))
    for target, want in sorted(recipe["sha256"].items()):
        got = _sha256(ckpt_dir / f"{target}.ckpt")
        if got != want:
            _fail(f"checkpoint {target}.ckpt hash {got} != recorded {want}", 3)
    return recipe


def _measure_setup(workload):
    """Wall times of fresh interpreters loading what the workload needs;
    one untimed probe first so bytecode caches exist. No timeout: with one,
    `subprocess` polls for the exit in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            samples.append(time.perf_counter() - t0)
    return samples


def _invoke(cli, argv):
    """One CLI verb in this process: (exit code, wall seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(["--seed", CHATMINE_SEED] + argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t0
    return rc, seconds, err.getvalue()


def _run_pass(cli, wl, sample_reference):
    """Run every verb of one pass, calling sample_reference() after each;
    returns a dict of what the run needs."""
    seconds, logs, verb_seconds = {}, {}, Counter()
    bad = {}  # label -> first failure
    for verb, label, argv in wl.verbs():
        rc, s, err = _invoke(cli, argv)
        sample_reference()
        seconds[label] = s
        logs[label] = err
        verb_seconds[verb] += s
        if rc != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            bad[label] = f"exit {rc}: {tail[0]}"
    facts = None
    if not bad:
        failures, facts = wl.check(logs)
        for label, message in failures:
            bad.setdefault(label, message)
    digests = {label: _sha256(path) for label, path in wl.outputs().items()}
    return {
        "seconds": seconds,
        "verb_seconds": verb_seconds,
        "total_s": sum(seconds.values()),
        "facts": facts,
        "bad": bad,
        "digests": digests,
    }


def _median(values):
    """Median, or 0.0 when no pass produced the value; the run then also
    reports failures, so it is not taken as correct."""
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "chatmine" / "__init__.py").is_file():
        _fail("run from a chatmine checkout: src/chatmine is missing here")
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    import chatmine
    from chatmine import cli

    if Path(chatmine.__file__).resolve().parent != (ROOT / "src" / "chatmine").resolve():
        _fail(f"imported chatmine from {chatmine.__file__}, not from src/")
    from perfbench import layers, reference, workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    recipe = _verify_checkpoints(workloads.CKPT_DIR)
    ref_samples = []

    def sample_reference():
        ref_samples.extend(reference.measure())

    sample_reference()
    setup_samples = _measure_setup(args.workload)
    sample_reference()
    # set-up lasts a few seconds: take the machine speed right around it
    setup_speed = reference.speed(ref_samples)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        wl = kind()
        inputs = wl.prepare(args.seed, work)
        # fill lazy caches and first-use costs on a small input, untimed
        warm = kind(**kind.warmup_params)
        warm.prepare(args.seed, work / "warmup")
        warm_pass = _run_pass(cli, warm, sample_reference)

        rec = None
        passes = []
        t_start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            if traced:
                rec = layers.install(rec)
            try:
                p = _run_pass(cli, wl, sample_reference)
            finally:
                if traced:
                    rec.uninstall()
            p["traced"] = traced
            passes.append(p)
            elapsed = time.perf_counter() - t_start
            typical = _median([q["total_s"] for q in passes])
            if len(passes) >= 1 + args.trace and elapsed + typical > args.seconds:
                break
        measured_s = time.perf_counter() - t_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # operations: every verb invocation; one fails on a non-zero exit, a
    # failed output check, or output bytes that differ from the first pass
    first = passes[0]["digests"]
    attempted = failed = 0
    problems = Counter()
    for p in [warm_pass] + passes:
        for label in p["seconds"]:
            attempted += 1
            message = p["bad"].get(label)
            if message is None and p is not warm_pass and p["digests"].get(label) != first.get(label):
                message = "output differs from the first pass"
            if message is not None:
                failed += 1
                problems[f"{label}: {message}"] += 1

    # times count from every pass whose outputs could be read
    timed = [p for p in passes if p["facts"] is not None]
    untraced = [p for p in timed if not p["traced"]]
    details = {}
    for p in untraced:
        rate, named = wl.metrics(p["seconds"], p["facts"])
        named.update({"raw.items_per_s": rate, "raw.pass_s": p["total_s"]})
        for k, v in named.items():
            details.setdefault(k, []).append(v)
    details = {k: _median(v) for k, v in details.items()}
    # the run's machine speed, from every reference sample taken in it
    speed = reference.speed(ref_samples)
    details["machine.speed"] = speed
    details["machine.setup_speed"] = setup_speed
    details["raw.setup_s"] = statistics.median(setup_samples)

    if args.trace == 0:
        metrics = {
            "setup_s": (details["raw.setup_s"] * setup_speed, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "items_per_s": (details.get("raw.items_per_s", 0.0) / speed, "1/s"),
            "pass_s": (details.get("raw.pass_s", 0.0) * speed, "s"),
        }
    else:
        traced = [p for p in timed if p["traced"]]
        n = max(1, len(traced))
        verb_seconds = Counter()
        for p in traced:
            verb_seconds.update(p["verb_seconds"])
        extract_out = None
        if args.workload == "extract":
            extract_out = (sum(p["facts"]["pairs"] for p in traced),
                           sum(p["facts"]["solutions"] for p in traced))
        values = layers.per_layer(rec.totals(), rec.counts, n, verb_seconds, extract_out)
        base = _median([p["total_s"] for p in untraced])
        overhead = _median([p["total_s"] for p in traced]) - base
        values["trace.overhead_s"] = overhead * speed
        values["trace.overhead_share"] = overhead / base if base else 0.0
        metrics = {k: (values[k], layers.METRICS[k][0]) for k in layers.METRICS}
        WORK.mkdir(exist_ok=True)
        rec.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": wl.params,
        "inputs": inputs,
        "environment": _environment(),
        "checkpoints": recipe,
        "setup_samples_s": setup_samples,
        "measured_s": measured_s,
        "passes": [{"traced": p["traced"], "seconds": p["seconds"]} for p in passes],
        "reference_samples_s": ref_samples,
        "details": details,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "missing_hooks": sorted(set(rec.missing)) if rec else [],
        "problems": dict(problems),
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} in {measured_s:.1f} s  record {out.relative_to(ROOT)}")
    for k, v in sorted(details.items()):
        print(f"  {k:40s} {v:14.4f}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:40s} {v:14.4f} {unit}")
    for message, count in sorted(problems.items()):
        print(f"  FAILED x{count}: {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of triqom: runs one workload's scenario configs through
`triqom.cli.main` in this process, checks every output against closed forms,
and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload open-cell --seed 1 --seconds 20 --trace 0

Workloads: open-cell, closed-series, scenario-suite (see perfbench/README.md).
A run repeats whole rounds (every config of the workload once) until
`--seconds` have passed, at least two rounds, and times the reference
kernels between CLI runs.  `--trace 0` reports the end-to-end metrics, with
times in reference seconds (see reference.py); `--trace 1` alternates
untraced and traced rounds and reports the per-layer metrics from the traced
ones, with the tracing overhead.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
Scratch files go to `.perfbench_out/` at the checkout root.
"""
import os
import sys

# BLAS threads are fixed for this process (and the set-up probes it starts)
# before numpy loads, and never above the cores available
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
# keep bytecode out of the source tree
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

SETUP_PROBES = 3
MIN_ROUNDS = 2  # the byte-identity check compares each round with the first


def _probe_setup(workload: str, seed: int, cfg_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to its workload inputs being ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(cfg_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {rc}")
    return elapsed


def _time_setup(workload: str, seed: int, run_dir: Path) -> tuple[list, list]:
    """SETUP_PROBES set-up times, and the reference kernel times before the
    first probe and after each one."""
    times, ref = [], [reference.measure()]
    for k in range(SETUP_PROBES):
        times.append(_probe_setup(workload, seed, run_dir / f"probe{k}"))
        ref.append(reference.measure())
    return times, ref


def _openblas() -> list:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"lib": Path(path).name}
        for key, stem, restype in (("config", "get_config", ctypes.c_char_p),
                                   ("threads", "get_num_threads", ctypes.c_int)):
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
                    if fn is not None and key not in info:
                        fn.restype = restype
                        val = fn()
                        info[key] = val.decode() if isinstance(val, bytes) else val
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas(),
            "blas_threads": int(BLAS_THREADS)}


class Runner:
    """Runs rounds of a workload's operations, checks them, and keeps the timings."""

    def __init__(self, ops, run_dir: Path):
        self.ops = ops
        self.run_dir = run_dir
        self.cache: dict = {}
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.peak_rss_mb = 0.0
        # per round: {"traced", "times", "ref", "bytes", "spans"}; "ref" holds the
        # reference kernel times before the first CLI run and after each one
        self.rounds: list = []

    def _run_op(self, op, out_dir: Path):
        cli = sys.modules["triqom.cli"]  # looked up per call so a traced main is used
        argv = ["run", str(op.config), "--out", str(out_dir), "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails this operation, the run goes on
            traceback.print_exc()
            rc = "exception"
        return time.perf_counter() - t0, rc

    def _verify(self, op, out_dir: Path) -> tuple[list, int]:
        fails = checks.check_op(op, out_dir, self.cache)
        size = 0
        try:
            paths = checks.data_files(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            return fails + [f"no readable manifest: {exc}"], 0
        for path in paths:
            data = path.read_bytes()
            size += len(data)
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault((op.name, path.name), digest)
            if digest != first:
                fails.append(f"{path.name} differs from the first round's bytes")
        return fails, size

    def round(self, tracer=None) -> None:
        idx = len(self.rounds)
        round_dir = self.run_dir / f"round{idx}"
        times, size = {}, 0
        ref = [reference.measure()]
        lo = tracer.mark() if tracer else 0
        if tracer:
            tracer.install()
        try:
            results = []
            for op in self.ops:
                dt, rc = self._run_op(op, round_dir / op.name)
                ref.append(reference.measure())
                times[op.name] = dt
                results.append((op, rc))
        finally:
            if tracer:
                tracer.uninstall()
        hi = tracer.mark() if tracer else 0
        if idx == 0:
            # before any check runs, so the benchmark's own arrays do not count
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op, rc in results:
            self.attempted += 1
            if rc != 0:
                fails = [f"CLI exit code {rc}"]
            else:
                fails, op_bytes = self._verify(op, round_dir / op.name)
                size += op_bytes
                self.wrong += bool(fails)
            if fails:
                self.failed += 1
                for msg in fails:
                    print(f"FAIL round {idx} {op.name}: {msg}", file=sys.stderr)
        shutil.rmtree(round_dir, ignore_errors=True)
        self.rounds.append({"traced": tracer is not None, "ref": ref, "times": times,
                            "bytes": size, "spans": (lo, hi)})


def _median_of(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def _scaled_runs(r: dict) -> list:
    """A round's CLI run times in reference seconds."""
    return [reference.scaled(t, r["ref"][i], r["ref"][i + 1])
            for i, t in enumerate(r["times"].values())]


def end_to_end(spec: list, runner: Runner, setup_times: list, setup_ref: list) -> dict:
    """Medians over the untraced rounds (or the set-up probes), in reference seconds."""
    plain = [r for r in runner.rounds if not r["traced"]]
    values = {
        "setup_s": statistics.median(reference.scaled(t, setup_ref[k], setup_ref[k + 1])
                                     for k, t in enumerate(setup_times)),
        "peak_rss_mb": runner.peak_rss_mb,
        "round_s": _median_of(plain, lambda r: sum(_scaled_runs(r))),
        "slowest_run_s": _median_of(plain, lambda r: max(_scaled_runs(r))),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(spec: list, runner: Runner, tracer: Tracer) -> dict:
    traced = [r for r in runner.rounds if r["traced"]]
    plain = [r for r in runner.rounds if not r["traced"]]
    stats = [aggregate(tracer.spans, *r["spans"]) for r in traced]
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            value = (_median_of(traced, lambda r: sum(r["times"].values()))
                     - _median_of(plain, lambda r: sum(r["times"].values())))
        elif name == "cli.output_bytes":
            value = _median_of(traced, lambda r: r["bytes"])
        else:
            func, stat = name.rsplit(".", 1)
            value = statistics.median(s.get(func, {}).get(stat, 0) for s in stats)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def detail(runner: Runner, setup_times: list) -> dict:
    """The per-configuration figures (each op's median time per its unit of work,
    in reference seconds), the wall times behind the end-to-end metrics, and the
    median time of each reference kernel."""
    plain = [r for r in runner.rounds if not r["traced"]]
    out = {}
    for i, op in enumerate(runner.ops):
        out[op.metric] = {"value": _median_of(plain, lambda r: _scaled_runs(r)[i]) / op.per,
                          "unit": "s"}
    out["setup_wall_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    out["round_wall_s"] = {"value": _median_of(plain, lambda r: sum(r["times"].values())),
                           "unit": "s"}
    for name in reference.KERNELS:
        out[f"reference_{name}_s"] = {
            "value": statistics.median(m[name] for r in plain for m in r["ref"]), "unit": "s"}
    return out


def _write_trace(path: Path, tracer, runner: Runner) -> None:
    spans = [{"name": n, "start": t0, "end": t1, "parent": p, "value": v}
             for n, t0, t1, p, v in tracer.spans]
    rounds = [{"traced": r["traced"], "times": r["times"], "spans": list(r["spans"])}
              for r in runner.rounds]
    path.write_text(json.dumps({"rounds": rounds, "spans": spans}), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "triqom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no triqom sources under {ROOT / 'src'} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times, setup_ref = _time_setup(args.workload, args.seed, run_dir)
        ops = workloads.setup(args.workload, args.seed, ROOT, run_dir / "configs")
        runner = Runner(ops, run_dir)
        tracer = Tracer() if args.trace else None
        t0 = time.perf_counter()
        while len(runner.rounds) < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
            # with --trace 1, every second round is traced
            runner.round(tracer if tracer and len(runner.rounds) % 2 else None)
        env = environment()
        if tracer:
            metrics = per_layer(spec["per_layer"], runner, tracer)
            _write_trace(WORK / f"trace-{tag}.json", tracer, runner)
        else:
            metrics = end_to_end(spec["end_to_end"], runner, setup_times, setup_ref)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = detail(runner, setup_times)
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "setup_s": setup_times, "setup_ref": setup_ref,
                    "detail": info,
                    "rounds": [{"traced": r["traced"], "ref": r["ref"], "times": r["times"]}
                               for r in runner.rounds],
                    **result}, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    print("detail " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

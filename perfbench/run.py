"""cbfsynth benchmark: one workload per run, or all three in sequence.

    python3 perfbench/run.py --workload synth|resume|sweep|all \
        --seed N --seconds S --trace 0|1

Workloads (closed loop: one operation at a time, BLAS limited to one thread):

  synth   cold `cbfsynth pipeline` under acceptance criterion 8's fit budget,
          at least two repetitions into fresh output directories.
  resume  warm `cbfsynth pipeline` re-run on a prepared output directory in
          which the sample, boundary and fit stages are all reused.
  sweep   `simulate` + `check_invariance` from seeded starts strictly inside
          the closed-form pair (identity candidate, v <= 30 cap).

With --trace 0 the run measures for --seconds and reports the end-to-end
metrics. With --trace 1 it runs a fixed number of (untraced, traced) operation
pairs, wraps every public function of each cbfsynth module from outside (see
tracer.py) and reports per-layer metrics plus the tracing overhead. Spans are
written under .perfbench/traces/, never into a pipeline output directory.

Every operation's output is checked; a failed check makes the run print
"correct": false and exit 1. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Closed loop on a 2-core box: keep BLAS from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CONFIG = HERE / "pipeline.cfg"

WORKLOADS = ("synth", "resume", "sweep")

# --seed N picks the sampling seed SEEDS[workload][N % len]; --sampling-seed
# overrides it. Every seed listed for a workload stops at the same sample count
# under the config's convergence rule, so runs compare equal working sets.
# resume keeps one seed so its untimed preparation is made once per source
# tree; 0, 1, 8, 12 and 15 also stop at 177,147 samples.
SEEDS = {
    "synth": (5, 25, 41, 43, 47, 70, 86, 88),     # 6,561 samples
    "resume": (3,),                               # 177,147 samples
}
SAMPLES = {"synth": 6561, "resume": 177147}

SETUP_REPEATS = 5
MIN_OPS = {"synth": 2, "resume": 3, "sweep": 20}
TRACE_PAIRS = {"synth": 1, "resume": 2, "sweep": 10}

# sweep: criterion 6/7's closed loop with the P controller
SWEEP_HORIZON = 10.0
SWEEP_DT = 0.01
SWEEP_KP = 10.0
SWEEP_KAPPA = 5.0
SWEEP_POOL = 4096

# layers each workload must reach in a traced run
EXPECTED_LAYERS = {
    "synth": ("config", "system", "qp", "sampler", "boundary", "fitter", "simulator", "cli"),
    "resume": ("config", "system", "sampler", "boundary", "fitter", "simulator", "cli"),
    "sweep": ("system", "simulator"),
}
FIT_CALLS = ("fitter.fit_uniform", "fitter.fit_nonuniform", "fitter.fit_multi")


# ---------------------------------------------------------------------------
# helpers

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def dir_digests(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> dict[str, float]:
    """Median over fresh processes of start -> imported, config loaded, system built."""
    total, load, build = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(CONFIG)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=120, check=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        total.append(rec["ready"] - t0)
        load.append(rec["load_s"])
        build.append(rec["build_s"])
    return {"setup_s": statistics.median(total), "config.load_s": statistics.median(load),
            "system.build_s": statistics.median(build)}


def run_cli(argv: list[str]) -> tuple[int, str]:
    from cbfsynth import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def pipeline_argv(out: Path, sampling_seed: int) -> list[str]:
    return ["pipeline", "--config", str(CONFIG), "--out", str(out), "--seed", str(sampling_seed)]


def report_failures(out: Path) -> list[str]:
    """report.md table rows whose status is not `pass`."""
    rows = [line for line in (out / "report.md").read_text().splitlines()
            if line.startswith("| ") and not line.startswith(("| check", "| ---"))]
    return [row for row in rows if not row.rstrip().endswith("| pass |")]


def sample_count(stdout: str) -> int | None:
    m = re.search(r"^sample: .*n=(\d+)", stdout, re.M)
    return int(m.group(1)) if m else None


def fit_areas(out: Path) -> dict[str, float]:
    from cbfsynth import fitter
    return {f"fitter.area_{m}": fitter.load_fit(out / f"candidates_{m}.json")[0].objective_value
            for m in ("uniform", "nonuniform", "multi")}


class Run:
    """Operation timings, failures and notes of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 sampling_seed: int | None = None):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        if sampling_seed is None and workload in SEEDS:
            sampling_seed = SEEDS[workload][seed % len(SEEDS[workload])]
        self.sampling_seed = sampling_seed
        self.op_s: list[float] = []
        self.traced_s: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.info: dict[str, object] = {}
        self.extra: dict[str, float] = {}
        self.tracer = None

    def fail(self, msg: str) -> None:
        self.errors.append(msg)
        print(f"check failed: {msg}", file=sys.stderr)

    def ops(self):
        """Yield (index, traced) until the run has measured long enough."""
        if self.trace:
            for i in range(2 * TRACE_PAIRS[self.workload]):
                yield i, i % 2 == 1
            return
        # stop before an operation that would overrun the measuring time
        t_end = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_OPS[self.workload] \
                or time.perf_counter() + self.op_s[-1] <= t_end:
            yield i, False
            i += 1

    def timed(self, traced: bool, index: int, fn):
        """Run fn once, traced or not, and record its wall time."""
        if traced:
            self.tracer.op = index
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        (self.traced_s if traced else self.op_s).append(dt)
        return result


# ---------------------------------------------------------------------------
# workloads

def workload_synth(run: Run) -> None:
    sseed = run.sampling_seed
    run.info.update(sampling_seed=sseed)
    base = WORK / "synth"
    first: dict[str, str] | None = None
    for i, traced in run.ops():
        out = base / f"rep{i}"
        shutil.rmtree(out, ignore_errors=True)
        rc, stdout = run.timed(traced, i, lambda: run_cli(pipeline_argv(out, sseed)))
        problems = []
        if rc != 0:
            problems.append(f"pipeline exit {rc}")
        else:
            problems += [f"report row not pass: {row}" for row in report_failures(out)]
            n = sample_count(stdout)
            run.info["samples"] = n
            if n != SAMPLES["synth"]:
                problems.append(f"sample count {n} != {SAMPLES['synth']}: not comparable")
            digests = dir_digests(out)
            if first is None:
                first = digests
                run.extra.update(fit_areas(out))
                run.extra["cli.artifact_bytes"] = dir_bytes(out)
                run.extra["sampler.file_bytes"] = (out / "samples.jsonl").stat().st_size
            elif digests != first:
                problems.append(f"rep {i} artifacts differ from rep 0")
        for p in problems:
            run.fail(p)
        run.failed += bool(problems)
        if i > 0:
            shutil.rmtree(base / f"rep{i - 1}", ignore_errors=True)
    shutil.rmtree(base, ignore_errors=True)


def source_key(sseed: int) -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "cbfsynth").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    h.update(CONFIG.read_bytes() + f"\0{sseed}".encode())
    return h.hexdigest()[:16]


def prepare_resume(sseed: int) -> tuple[Path, dict[str, str]]:
    """Output directory of a cold pipeline run, made once per source tree and seed.

    The cold run is preparation, not measured. It runs in a child process so
    the measuring process starts from the same state whether or not the
    directory was already there.
    """
    cache = WORK / "resume" / f"{source_key(sseed)}-seed{sseed}"
    out, manifest = cache / "out", cache / "manifest.json"
    if manifest.exists():
        expected = json.loads(manifest.read_text())
        if out.is_dir() and dir_digests(out) == expected:
            return out, expected
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    subprocess.run([sys.executable, "-m", "cbfsynth.cli", *pipeline_argv(out, sseed)],
                   env=child_env(), stdout=subprocess.DEVNULL, timeout=900, check=True)
    expected = dir_digests(out)
    manifest.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return out, expected


def workload_resume(run: Run) -> None:
    from cbfsynth import boundary, fitter, sampler
    sseed = run.sampling_seed
    run.info.update(sampling_seed=sseed)
    out, expected = prepare_resume(sseed)
    run.extra.update(fit_areas(out))
    run.extra["cli.artifact_bytes"] = dir_bytes(out)
    run.extra["sampler.file_bytes"] = (out / "samples.jsonl").stat().st_size

    # count calls into the stages that must be reused; patched inside the
    # timed call, on top of the tracer's wrappers, so both see the same calls
    stage_calls = dict.fromkeys(("run_sampling", "extract_boundary", "fit_uniform",
                                 "fit_nonuniform", "fit_multi"), 0)
    stage_mods = [(sampler, "run_sampling"), (boundary, "extract_boundary"),
                  (fitter, "fit_uniform"), (fitter, "fit_nonuniform"), (fitter, "fit_multi")]

    def counted(attr, fn):
        def call(*args, **kwargs):
            stage_calls[attr] += 1
            return fn(*args, **kwargs)
        return call

    def op():
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr in stage_mods]
        for mod, attr, fn in originals:
            setattr(mod, attr, counted(attr, fn))
        try:
            return run_cli(pipeline_argv(out, sseed))
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    for i, traced in run.ops():
        before = dict(stage_calls)
        rc, stdout = run.timed(traced, i, op)
        problems = []
        if rc != 0:
            problems.append(f"pipeline exit {rc}")
        called = {k: v - before[k] for k, v in stage_calls.items() if v != before[k]}
        if called:
            problems.append(f"stages re-ran instead of being reused: {called}")
        for stage in ("sample", "boundary", "fit"):
            if not re.search(rf"^{stage}: reusing", stdout, re.M):
                problems.append(f"{stage} stage not reported as reused")
        n = sample_count(stdout)
        run.info["samples"] = n
        if n != SAMPLES["resume"]:
            problems.append(f"sample count {n} != {SAMPLES['resume']}: not comparable")
        changed = sorted(k for k, v in dir_digests(out).items() if expected.get(k) != v)
        if changed:
            problems.append(f"artifacts changed: {changed}")
        for p in problems:
            run.fail(p)
        run.failed += bool(problems)


def workload_sweep(run: Run) -> None:
    import numpy as np
    from cbfsynth import simulator as sim
    from cbfsynth.config import load_config
    from cbfsynth.system import CbfCandidate, build_system, eval_h_batch, identity_candidate

    cfg = load_config(CONFIG)
    sysm, input_box = build_system(cfg.system_name, cfg.system_params)
    cands = [identity_candidate(2), CbfCandidate([0.0, 10.0], [0.0, 0.0], 30.0)]
    fc = sim.FilterConfig(alphas=[SWEEP_KAPPA] * len(cands), input_box=input_box)
    region = cfg.sampling_box()
    # strictly inside: every barrier clears the distance it can fall in 1.5 steps,
    # the margin interior_grid uses
    eta = 1.5 * SWEEP_DT * sim.hdot_rate_bound(cands, region, sysm, input_box)
    pool = np.random.default_rng(run.seed).uniform(region.lower, region.upper,
                                                   size=(SWEEP_POOL, region.dim))
    h = np.stack([eval_h_batch(c, sysm.hcf, pool) for c in cands], axis=1)
    starts = pool[np.all(h > eta, axis=1)]
    run.info.update(starts=len(starts))

    def op(x0):
        scfg = sim.SimConfig(x_init=x0, x_goal=[0.0, 0.0], horizon_T=SWEEP_HORIZON,
                             dt=SWEEP_DT, kp=SWEEP_KP)
        traj = sim.simulate(scfg, sysm, cands, fc)
        return sim.check_invariance(traj, cands, sysm.hcf)

    for i, traced in run.ops():
        # traced runs pair each traced trajectory with an untraced one from the same start
        x0 = starts[(i // 2 if run.trace else i) % len(starts)]
        rep = run.timed(traced, i, lambda: op(x0))
        bad = {k: v for k, v in (("h_breach_steps", rep.h_breach_steps),
                                 ("z_breach_steps", rep.z_breach_steps),
                                 ("infeasible_steps", rep.infeasible_steps)) if v}
        if bad:
            run.fail(f"start {x0.tolist()}: {bad}")
        run.failed += bool(bad)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run

def layer_metrics(run: Run) -> dict[str, float]:
    t = run.tracer
    n = max(1, len(run.traced_s))
    spans = t.spans

    def total(*names):
        return sum((t1 - t0) * 1e-9 for _, _, _, nm, t0, t1 in spans if nm in names) / n

    def count(*names):
        return sum(1 for s in spans if s[3] in names) / n

    def us(p, prefix):
        return percentile([(t1 - t0) * 1e-3 for _, _, _, nm, t0, t1 in spans
                           if nm.startswith(prefix)], p)

    def ops_with(*names):
        return len({s[2] for s in spans if s[3] in names})

    filter_calls = count("simulator.safety_filter") * n
    pipelines = count("cli.main") * n
    stages_run = (ops_with("sampler.run_sampling") + ops_with("boundary.extract_boundary")
                  + ops_with(*FIT_CALLS))
    m = {
        "fitter.fit_uniform_s": total("fitter.fit_uniform"),
        "fitter.fit_nonuniform_s": total("fitter.fit_nonuniform"),
        "fitter.fit_multi_s": total("fitter.fit_multi"),
        "fitter.verify_s": total("fitter.verify_candidate"),
        "fitter.eval_h_calls": count("system.eval_h_batch@fitter"),
        "fitter.eval_h_rows": t.counts["eval_h_rows"] / n,
        "fitter.eval_h_s": total("system.eval_h_batch@fitter"),
        "fitter.max_over_box_calls": count("qp.max_over_box@fitter"),
        "fitter.area_uniform": 0.0, "fitter.area_nonuniform": 0.0, "fitter.area_multi": 0.0,
        "sampler.run_sampling_s": total("sampler.run_sampling"),
        "sampler.samples": t.counts["samples"],
        "sampler.feasible_frac": t.counts["feasible_frac"],
        "sampler.save_s": total("sampler.save_samples"),
        "sampler.load_s": total("sampler.load_samples"),
        "sampler.canonical_calls": count("sampler.canonical_bytes"),
        "sampler.canonical_s": total("sampler.canonical_bytes"),
        "sampler.file_bytes": 0.0,
        "boundary.extract_s": total("boundary.extract_boundary"),
        "boundary.points": t.counts["boundary_points"],
        "boundary.load_s": total("boundary.load_boundary"),
        "simulator.simulate_calls": count("simulator.simulate"),
        "simulator.steps": t.counts["steps"] / n,
        "simulator.filter_us_p50": us(50, "simulator.safety_filter"),
        "simulator.filter_us_p99": us(99, "simulator.safety_filter"),
        "simulator.step_us_p50": us(50, "simulator.step"),
        "simulator.step_us_p99": us(99, "simulator.step"),
        "simulator.filter_active_frac": t.counts["filter_active"] / filter_calls
        if filter_calls else 0.0,
        "simulator.infeasible_steps": t.counts["infeasible"] / n,
        "simulator.csv_s": total("simulator.Trajectory.to_csv"),
        "qp.solve_calls": sum(1 for s in spans if s[3].startswith("qp.solve_box_qp")) / n,
        "qp.solve_us_p50": us(50, "qp.solve_box_qp"),
        "qp.solve_us_p99": us(99, "qp.solve_box_qp"),
        "qp.phase1_calls": count("qp.linprog"),
        "qp.phase1_s": total("qp.linprog"),
        "cli.stages_run": stages_run / n,
        "cli.stages_reused": (3 * pipelines - stages_run) / n,
        "cli.artifact_bytes": 0.0,
    }
    for layer, secs in t.self_seconds().items():
        m[f"{layer}.self_s"] = secs / n
    m.update(run.extra)
    pairs = list(zip(run.op_s, run.traced_s))
    m["trace.op_ms"] = percentile([b * 1e3 for _, b in pairs], 50)
    m["trace.overhead_ms"] = percentile([(b - a) * 1e3 for a, b in pairs], 50)
    m["trace.overhead_frac"] = sum(b - a for a, b in pairs) / sum(a for a, _ in pairs) \
        if pairs else 0.0
    return m


def install_hooks(tracer) -> None:
    """Counts taken from arguments and results at the layer boundaries."""
    def eval_rows(c, args, kwargs, result):
        c["eval_h_rows"] += len(result)

    def samples(c, args, kwargs, result):
        c["samples"] = len(result)
        c["feasible_frac"] = result.tracker.jaccard

    def points(c, args, kwargs, result):
        c["boundary_points"] = len(result)

    def steps(c, args, kwargs, result):
        c["steps"] += len(result) - 1

    def filtered(c, args, kwargs, result):
        u, status = result
        c["filter_active"] += bool((u != args[1]).any())
        c["infeasible"] += status == "infeasible"

    tracer.hooks.update({
        "system.eval_h_batch@fitter": eval_rows,
        "sampler.run_sampling": samples, "sampler.load_samples": samples,
        "boundary.extract_boundary": points, "boundary.load_boundary": points,
        "simulator.simulate": steps, "simulator.safety_filter": filtered,
    })


# ---------------------------------------------------------------------------
# entry points

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sampling_seed: int | None) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    run = Run(name, seed, seconds, trace, sampling_seed)
    setup = measure_setup()
    if trace:
        from tracer import Tracer
        run.tracer = Tracer()
        install_hooks(run.tracer)
    body = {"synth": workload_synth, "resume": workload_resume, "sweep": workload_sweep}[name]
    crashed = 0
    try:
        body(run)
    except Exception:  # the operation that raised counts as attempted and failed
        traceback.print_exc()
        run.fail("workload raised")
        crashed = 1
    run.failed += crashed
    attempted = len(run.op_s) + len(run.traced_s) + crashed

    if trace:
        metrics = {**{k: v for k, v in setup.items() if k != "setup_s"}, **layer_metrics(run)}
        seen = run.tracer.layers_seen()
        missing = [layer for layer in EXPECTED_LAYERS[name] if layer not in seen]
        if missing:
            run.fail(f"traced layers recorded no span: {missing}")
        if name == "resume" and any(metrics[f"{c}_s"] for c in FIT_CALLS):
            run.fail("fitter ran during resume")
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        run.tracer.write(traces / f"{name}.jsonl")
        units = {}
        for k, v in metrics.items():
            print(f"  {k:32s} {v:14.6g} {layer_unit(k)}")
    else:
        ms = [s * 1e3 for s in run.op_s]
        metrics = {
            "setup_s": setup["setup_s"],
            "op_ms_mean": statistics.fmean(ms) if ms else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_ms_mean": "ms", "peak_rss_mb": "MB"}
        print_table(run, metrics, setup, ms, attempted)

    correct = not run.errors and attempted > 0
    result = {"correct": correct, "attempted": attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units.get(k, layer_unit(k))}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    if ".area_" in name:
        return "area"
    return "count"


def print_table(run: Run, metrics: dict, setup: dict, ms: list[float], attempted: int) -> None:
    n = len(ms)
    op = {"synth": "pipeline_s (cold)", "resume": "pipeline_s (warm)",
          "sweep": "traj_ms"}[run.workload]
    scale = 1e-3 if run.workload != "sweep" else 1.0
    unit = "s" if run.workload != "sweep" else "ms"
    tail = max((p for p in (90, 95, 99) if n * (100 - p) / 100 >= 10), default=None)
    info = " ".join(f"{k}={v}" for k, v in run.info.items())
    print(f"workload {run.workload} seed={run.seed} {info}")
    print(f"  setup_s        {setup['setup_s']:.4f} s    median of {SETUP_REPEATS} starts "
          f"(config.load_s {setup['config.load_s']:.4f}, system.build_s "
          f"{setup['system.build_s']:.4f})")
    print(f"  {op:<14} mean {statistics.fmean(ms) * scale if ms else 0.0:.4f} {unit}, "
          f"p50 {percentile(ms, 50) * scale:.4f} {unit}"
          + (f", p{tail} {percentile(ms, tail) * scale:.4f} {unit}" if tail else "")
          + f"    over {n} operations")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac      {run.failed}/{attempted}")
    for k in ("fitter.area_uniform", "fitter.area_nonuniform", "fitter.area_multi"):
        if k in run.extra:
            print(f"  {k.split('.')[1]:<14} {run.extra[k]:.4f} area")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode or res is None:
            correct = False
        if res is not None:
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sampling-seed", type=int, default=None,
                    help="synth/resume: use this sampling seed instead of the one --seed maps to")
    args = ap.parse_args()
    if not (SRC / "cbfsynth" / "__init__.py").is_file():
        print(f"error: cbfsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.sampling_seed)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line pipeline: sample, boundary, fit, simulate, and pipeline.

Each stage reads the shared config file, consumes the previous stage's
artifact (validating content digests), and writes deterministic outputs:
line-delimited JSON for samples and boundary points, JSON for fitted
candidates, CSV plus a JSON manifest per simulation run, and a Markdown
report for the end-to-end pipeline. Exit codes: 0 ok, 2 usage or config
error, 3 sampling did not converge, 4 artifact integrity failure, 5 no
feasible fit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import boundary as bnd
from . import fitter as fit
from . import sampler as smp
from . import simulator as sim
from .config import ConfigError, PipelineConfig, load_config
from .system import barrier, build_system, stack_candidates

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_INTEGRITY = 4
EXIT_INFEASIBLE = 5


class IntegrityError(Exception):
    pass


def _file_digest(path: Path) -> str:
    with open(path, "rb") as f:
        return smp._sha256(f)


def _matches(path: Path, digest) -> bool:
    """Whether the file exists and hashes to `digest`."""
    return path.exists() and _file_digest(path) == digest


def _reusable(out: Path, cached: dict, inputs: dict, outputs: dict) -> bool:
    """Whether a stage's `stage_state.json` entry `cached` records each of
    `inputs` (its config hash and input digests) as they are now, and every
    file named in `outputs` still hashes to the digest recorded for it."""
    return (all(cached.get(key) == value for key, value in inputs.items())
            and all(_matches(out / name, digest) for name, digest in outputs.items()))


def _load(loader, path: Path, **kwargs):
    """Run an artifact loader; a file it cannot parse fails integrity, not
    config. The message names the file once, whether or not the loader's did."""
    try:
        return loader(path, **kwargs)
    except (ValueError, KeyError, TypeError) as exc:
        reason = str(exc).removeprefix(f"{path}: ")
        raise IntegrityError(f"{path}: cannot parse: {reason}") from None


def _resolve(args) -> tuple[PipelineConfig, Path]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.sampling["seed"] = args.seed
        try:   # checked again, as parsing checked the config's own seed
            cfg.sampling_args()
        except ValueError as exc:
            raise ConfigError(f"sampling: {exc}") from None
    return cfg, Path(cfg.output_dir if args.out is None else args.out)


def _build(cfg: PipelineConfig):
    return build_system(cfg.system_name, cfg.system_params)


def _key(settings) -> str:
    """A stage's `config_hash`: the digest of its resolved settings as sorted-key JSON."""
    text = json.dumps(settings, sort_keys=True, default=smp._jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh(cfg: PipelineConfig, path: Path, s):
    """`s`, the sample set or header read from `path`; IntegrityError if it
    is stale: drawn for another system, plant parameters, box, seed or
    tolerance than the config's."""
    sa, sysm = cfg.sampling_args(), _build(cfg)[0]
    drawn = (s.system_name, s.system_params, s.bounds.lower.tolist(), s.bounds.upper.tolist(),
             s.seed, s.zero_tol)
    if drawn != (sysm.name, sysm.params, sa["bounds"].lower.tolist(),
                 sa["bounds"].upper.tolist(), sa["seed"], sa["zero_tol"]):
        raise IntegrityError(f"{path}: sampled for another system, plant parameters, box, seed "
                             f"or zero_tol than the config's")
    return s


def _load_samples(cfg: PipelineConfig, path: Path) -> smp.SampleSet:
    """Load and fully check the sample file, and refuse it if it is stale or
    contradicts its own header: a row outside the header's box, or a label
    other than the one the header's plant gives its row."""
    s = _fresh(cfg, path, _load(smp.load_samples, path))
    sysm, input_box = _build(cfg)
    if not s.bounds.contains(s.states).all():
        raise IntegrityError(f"{path}: a sample row lies outside the header's box")
    if not np.array_equal(smp.classify_batch(sysm, input_box, s.states, s.zero_tol), s.labels):
        raise IntegrityError(f"{path}: a sample label is not the one the header's plant gives")
    return s


# ---------------------------------------------------------------------------
# Stages

def _stage_sample(cfg: PipelineConfig, out: Path) -> tuple[smp.SampleSet, int]:
    sysm, input_box = _build(cfg)
    s = smp.run_sampling(sysm, input_box, **cfg.sampling_args())
    smp.save_samples(s, out / "samples.jsonl")
    lines, prev = ["n,J,dJ"], 0.0   # dJ = |J_k - J_{k-1}|, with J_0 = 0 before any data
    for n, j in s.history:
        lines.append(f"{n},{j!r},{abs(j - prev)!r}")
        prev = j
    (out / "convergence.csv").write_bytes(("\n".join(lines) + "\n").encode())
    print(f"sample: n={len(s)} J={s.jaccard:.6f} converged={s.converged} "
          f"-> {out / 'samples.jsonl'}")
    return s, (EXIT_OK if s.converged else EXIT_NOT_CONVERGED)


def _extract(cfg: PipelineConfig, s: smp.SampleSet) -> bnd.BoundarySet:
    """The boundary the config's settings extract from `s`."""
    eps_cfg = cfg.boundary["epsilon"]
    eps = bnd.auto_epsilon(s) if eps_cfg == "auto" else float(eps_cfg)
    return bnd.extract_boundary(s, eps, box_face_is_boundary=cfg.boundary["box_face_is_boundary"])


def _stage_boundary(cfg: PipelineConfig, out: Path,
                    s: smp.SampleSet) -> tuple[bnd.BoundarySet, str]:
    b = _extract(cfg, s)
    digest = bnd.save_boundary(b, out / "boundary.jsonl")
    note = " (EMPTY; epsilon may be too small)" if b.empty_warning else ""
    print(f"boundary: {len(b)} points, epsilon={b.epsilon!r}{note} -> {out / 'boundary.jsonl'}")
    return b, digest


def _stage_fit(cfg: PipelineConfig, out: Path, s: smp.SampleSet, b: bnd.BoundarySet,
               checksums: dict[str, str]
               ) -> tuple[dict[str, fit.FitResult], dict[str, str], int]:
    """Fit each configured mode; returns the results, the digest of each
    candidates file written, and the exit code."""
    sysm, input_box = _build(cfg)
    results: dict[str, fit.FitResult] = {}
    digests: dict[str, str] = {}
    warm: list[tuple] = []
    for mode in cfg.fit["modes"]:
        fcfg = cfg.fit_config(mode, b.epsilon)
        # looked up per call so that wrappers installed on the module are honoured
        res = getattr(fit, f"fit_{mode}")(s, b, sysm, input_box, fcfg, warm=warm)
        results[mode] = res
        digests[mode] = fit.save_fit(res, out / f"candidates_{mode}.json", cfg=fcfg,
                                     source_checksums=checksums)
        c = res.counts
        search = (f"workers={c.workers} evaluations={c.evaluations} "
                  f"score_calls={c.score_calls} "
                  f"offers_accepted={c.accepted} offers_rejected={c.rejected} "
                  f"probe_calls={c.probe_calls} "
                  f"root_steps_mean={c.root_steps_mean:.2f} root_steps_max={c.root_steps_max}")
        if not res.feasible:
            print(f"fit[{mode}]: INFEASIBLE: {res.diagnostics}; {search}")
            return results, digests, EXIT_INFEASIBLE
        ver = res.verification
        print(f"fit[{mode}]: objective={res.objective_value:.4f} "
              f"candidates={len(res.candidates)} containment={ver.containment_fraction:.4f} "
              f"boundary_ok={ver.boundary_cbf_feasible_fraction:.4f} "
              f"exists_input_ok={ver.prop2_feasible_fraction:.4f} {search}")
        warm.append(tuple(res.candidates))
    return results, digests, EXIT_OK


def _plan(cfg: PipelineConfig, res: fit.FitResult) -> list[dict | None]:
    """Per configured start, None if the simulate stage runs it, or the
    manifest of a skipped start: one outside the candidate set while
    `require_safe_start` is on. Skipped starts are not written to disk."""
    starts = np.array(cfg.simulate["x_init"])
    params = [p[:, None] for p in stack_candidates(res.candidates)]
    h0 = barrier(_build(cfg)[0].hcf, starts, params).min(axis=0)
    skip = cfg.simulate["require_safe_start"] & (h0 < 0.0)
    return [{"start": x0.tolist(), "skipped": True, "min_h0": h} if sk else None
            for x0, h, sk in zip(starts, h0, skip)]


def _stage_simulate(cfg: PipelineConfig, out: Path, mode: str, res: fit.FitResult,
                    cand_checksum: str, plan: list[dict | None]
                    ) -> tuple[list[dict], dict[str, str]]:
    """Run the closed loop from each start `plan` does not skip; returns the
    manifests, skipped starts included, and the digest of each file written."""
    sysm, input_box = _build(cfg)
    scfg, fc = cfg.sim_config(), cfg.filter_config(input_box)
    starts = np.array(cfg.simulate["x_init"])
    ran = [mf is None for mf in plan]
    trajs = iter(sim.simulate_many(starts[ran], scfg, sysm, res.candidates, fc))
    manifests, digests = list(plan), {}
    for idx, (x0, skipped) in enumerate(zip(starts, plan), start=1):
        if skipped:
            print(f"simulate[{mode}] start {idx} {x0.tolist()}: skipped "
                  f"(outside candidate set, min h = {skipped['min_h0']:.4g})")
            continue
        traj = next(trajs)
        rep = sim.check_invariance(traj, res.candidates, sysm.hcf)
        csv_name, run_name = f"traj_{mode}_{idx}.csv", f"run_{mode}_{idx}.json"
        digests[csv_name] = traj.to_csv(out / csv_name)
        manifest = sim.run_manifest(replace(scfg, x_init=x0), traj, rep, cand_checksum,
                                    digests[csv_name])
        manifest.update(mode=mode, skipped=False)
        digests[run_name] = sim.save_manifest(manifest, out / run_name)
        manifests[idx - 1] = manifest
        active = np.any(traj.filtered_inputs != traj.nominal_inputs, axis=1).sum()
        print(f"simulate[{mode}] start {idx} {x0.tolist()}: steps={len(traj) - 1} "
              f"min_z={rep.min_z:.3e} breaches h/z={rep.h_breach_steps}/{rep.z_breach_steps} "
              f"infeasible={rep.infeasible_steps} filter_active={active} "
              f"terminal={traj.states[-1].round(4).tolist()}")
    return manifests, digests


# ---------------------------------------------------------------------------
# Commands

def cmd_sample(args, cfg: PipelineConfig, out: Path) -> int:
    _, code = _stage_sample(cfg, out)
    return code


def cmd_boundary(args, cfg: PipelineConfig, out: Path) -> int:
    _stage_boundary(cfg, out, _load_samples(cfg, out / "samples.jsonl"))
    return EXIT_OK


def cmd_fit(args, cfg: PipelineConfig, out: Path) -> int:
    boundary_path = out / "boundary.jsonl"
    s = _load_samples(cfg, out / "samples.jsonl")
    b = _extract(cfg, s)
    # the file must hold the bytes the boundary stage writes for these samples,
    # so a stale file, or a point dropped, added, moved or retyped, fails
    if bnd.boundary_bytes(b) != boundary_path.read_bytes():
        raise IntegrityError(f"{boundary_path}: not the boundary the config extracts "
                             f"from its sample file")
    checksums = {"samples": s.checksum(), "boundary": _file_digest(boundary_path)}
    _, _, code = _stage_fit(cfg, out, s, b, checksums)
    return code


def cmd_simulate(args, cfg: PipelineConfig, out: Path) -> int:
    mode = args.mode or cfg.fit["modes"][-1]
    cand_path = Path(args.candidates) if args.candidates else out / f"candidates_{mode}.json"
    res, doc = _load(fit.load_fit, cand_path, dim=cfg.sampling_box().dim)
    if not args.candidates and res.mode != mode:
        raise IntegrityError(f"{cand_path}: holds the candidates of mode {res.mode!r}")
    if not res.feasible or not res.candidates:
        print(f"error: {cand_path} holds no feasible candidates", file=_sys.stderr)
        return EXIT_INFEASIBLE
    _stage_simulate(cfg, out, doc["mode"], res, _file_digest(cand_path), _plan(cfg, res))
    return EXIT_OK


def _load_stage_state(out: Path) -> dict:
    try:
        state = json.loads((out / "stage_state.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    # an entry, or its `outputs`, that is not an object is no record at all
    return ({stage: entry for stage, entry in state.items()
             if isinstance(entry, dict) and isinstance(entry.get("outputs", {}), dict)}
            if isinstance(state, dict) else {})


def _save_stage_state(out: Path, state: dict) -> None:
    (out / "stage_state.json").write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")


def cmd_pipeline(args, cfg: PipelineConfig, out: Path) -> int:
    """Run sample -> boundary -> fit -> simulate and write the report.

    A stage is reused when `stage_state.json` records its own resolved
    settings (`_key`), the digests of its inputs and the digests of its
    output files as they are now; the settings of the stages above reach it
    only through those input digests. Each artifact is hashed at most once
    per run. The state records an output digest only for bytes this code
    just wrote (or, for the sample file, fully loaded and checked) from
    these inputs, and every stage is deterministic, so a match vouches for
    the file. The sample file is judged on its header and digest alone
    (`sampler.read_header`); its rows are checked again only when the
    boundary or fit stage runs. A reused simulate stage runs no closed loop:
    the report reads the run manifests back and recomputes the skipped
    starts, never written (`_plan`).
    """
    state = _load_stage_state(out)
    new_state: dict = {}

    # sample stage (a file whose header fails to parse or is stale is a cache
    # miss, not an integrity failure)
    sample_path = out / "samples.jsonl"
    sysm = _build(cfg)[0]
    sample_hash = _key((sysm.name, sysm.params, cfg.sampling_args()))
    cached = state.get("sample", {})
    head = s = None
    if sample_path.exists() and cached.get("config_hash") == sample_hash:
        with contextlib.suppress(IntegrityError):
            head = _fresh(cfg, sample_path, _load(smp.read_header, sample_path))
    if head is not None and head.digest == cached.get("output"):
        print(f"sample: reusing {sample_path} (n={head.n})")
        code = EXIT_OK if head.converged else EXIT_NOT_CONVERGED
    else:
        s, code = _stage_sample(cfg, out)
        head = s
    if code != EXIT_OK:
        _save_stage_state(out, new_state)
        return code
    new_state["sample"] = {"config_hash": sample_hash, "output": head.digest}

    def samples() -> smp.SampleSet:
        """The sample set, loaded and checked on first use."""
        nonlocal s
        if s is None:
            s = _load_samples(cfg, sample_path)
            if s.checksum() != head.digest:
                raise IntegrityError(f"{sample_path}: changed during the run")
        return s

    # boundary stage
    boundary_path = out / "boundary.jsonl"
    boundary_hash = _key(cfg.boundary)
    cached = state.get("boundary", {})
    if _reusable(out, cached, {"config_hash": boundary_hash, "input": head.digest},
                 {boundary_path.name: cached.get("output")}):
        b = _load(bnd.load_boundary, boundary_path, dim=head.bounds.dim)
        boundary_digest = cached["output"]
        print(f"boundary: reusing {boundary_path} ({len(b)} points)")
    else:
        b, boundary_digest = _stage_boundary(cfg, out, samples())
    if b.source_checksum != head.digest:
        raise IntegrityError(f"{boundary_path}: extracted from a different sample file")
    new_state["boundary"] = {"config_hash": boundary_hash, "input": head.digest,
                             "output": boundary_digest}

    # fit stage
    checksums = {"samples": head.digest, "boundary": boundary_digest}
    fit_hash = _key(cfg.fit)
    modes = cfg.fit["modes"]
    cached = state.get("fit", {})
    outputs = cached.get("outputs", {})
    if _reusable(out, cached, {"config_hash": fit_hash, "inputs": checksums},
                 {f"candidates_{m}.json": outputs.get(m) for m in modes}):
        results = {m: _load(fit.load_fit, out / f"candidates_{m}.json", dim=head.bounds.dim)[0]
                   for m in modes}
        digests = {m: outputs[m] for m in modes}
        print(f"fit: reusing candidates for modes {modes}")
    else:
        results, digests, code = _stage_fit(cfg, out, samples(), b, checksums)
        if code != EXIT_OK:
            _save_stage_state(out, new_state)
            return code
    new_state["fit"] = {"config_hash": fit_hash, "inputs": checksums, "outputs": digests}

    # simulate stage
    sim_hash = _key(cfg.simulate)
    cached = state.get("simulate", {})
    outputs = cached.get("outputs", {})
    plans = {m: _plan(cfg, results[m]) for m in modes}
    files = {name: outputs.get(name) for m, plan in plans.items()
             for idx, mf in enumerate(plan, start=1) if mf is None
             for name in (f"traj_{m}_{idx}.csv", f"run_{m}_{idx}.json")}
    manifests: dict[str, list[dict]] = {}
    if _reusable(out, cached, {"config_hash": sim_hash, "inputs": digests}, files):
        for m, plan in plans.items():
            manifests[m] = [mf or _load(sim.load_manifest, out / f"run_{m}_{idx}.json")
                            for idx, mf in enumerate(plan, start=1)]
            print(f"simulate[{m}]: reusing the runs of {plan.count(None)} of {len(plan)} starts")
    else:
        files = {}
        for m, plan in plans.items():
            manifests[m], written = _stage_simulate(cfg, out, m, results[m], digests[m], plan)
            files.update(written)
    new_state["simulate"] = {"config_hash": sim_hash, "inputs": digests, "outputs": files}

    _write_report(cfg, out, head, b, results, manifests)
    _save_stage_state(out, new_state)
    print(f"report -> {out / 'report.md'}")
    return EXIT_OK


def _is_reference_setup(cfg: PipelineConfig) -> bool:
    """The double-integrator configuration the report's targets are stated for."""
    ref = {"gamma1": 0.0, "gamma2": 0.1, "u_min": -300.0, "u_max": 300.0}
    box = cfg.sampling_box()
    return (cfg.system_name == "double_integrator" and dict(ref, **cfg.system_params) == ref
            and np.array_equal(box.lower, [-10.0, -40.0])
            and np.array_equal(box.upper, [0.0, 40.0]))


def _write_report(cfg: PipelineConfig, out: Path, head: smp.SampleHeader, b: bnd.BoundarySet,
                  results: dict[str, fit.FitResult], manifests: dict[str, list[dict]]) -> None:
    ref = _is_reference_setup(cfg)
    rows: list[tuple[str, str, str, str]] = []

    def row(name: str, value: str, target: str, ok: bool | None):
        status = "n/a" if ok is None else ("pass" if ok else "FAIL")
        rows.append((name, value, target, status))

    n, j, converged = head.n, head.jaccard, head.converged
    row("feasible-fraction convergence",
        f"n = {n}, J = {j:.5f}, converged = {converged}",
        "converged by n = 177147 with J = 0.819 +/- 0.02" if ref else "converged",
        (converged and n <= 177147 and abs(j - 0.819) <= 0.02) if ref else converged)

    if ref and len(b):
        cap_pts = b.points[b.points[:, 0] < -3.5]
        cap = float(cap_pts[:, 1].max()) if len(cap_pts) else float("nan")
        row("boundary velocity cap", f"{cap:.3f}", "30 +/- 1.5", abs(cap - 30.0) <= 1.5)
    else:
        row("boundary points", str(len(b)), "nonempty", len(b) > 0)

    objs = {m: r.objective_value for m, r in results.items()}
    for m, r in results.items():
        row(f"fit objective [{m}]", f"{r.objective_value:.3f}",
            ">= 622.25 (0.95 x 655)" if (ref and m == "multi") else "feasible",
            (r.objective_value >= 0.95 * 655.0) if (ref and m == "multi") else r.feasible)
    if {"uniform", "nonuniform"} <= set(objs):
        ok = objs["nonuniform"] >= objs["uniform"] * 0.98
        row("mode ordering nonuniform >= uniform - 2%",
            f"{objs['nonuniform']:.2f} vs {objs['uniform']:.2f}", "holds", ok)
    if {"nonuniform", "multi"} <= set(objs):
        ok = objs["multi"] >= objs["nonuniform"] * 0.98
        row("mode ordering multi >= nonuniform - 2%",
            f"{objs['multi']:.2f} vs {objs['nonuniform']:.2f}", "holds", ok)

    for m in manifests:
        ran = [mf for mf in manifests[m] if not mf.get("skipped")]
        skipped = len(manifests[m]) - len(ran)
        breaches = sum(mf["breaches"]["h_breach_steps"] + mf["breaches"]["z_breach_steps"]
                       for mf in ran)
        infeas = sum(mf["breaches"]["infeasible_steps"] for mf in ran)
        row(f"closed-loop safety [{m}]",
            f"{len(ran)} runs, {skipped} skipped, breaches = {breaches}, "
            f"infeasible steps = {infeas}",
            "zero breaches and infeasible steps", bool(ran) and breaches == infeas == 0)
        if ref and m == "multi" and ran:
            worst = max(abs(mf["terminal_state"][0]) for mf in ran)
            row("terminal position error [multi]", f"{worst:.4f}", "<= 0.5", worst <= 0.5)

    lines = ["# Pipeline report", "",
             f"- system: `{cfg.system_name}`",
             f"- sampling seed: {cfg.sampling['seed']}", "",
             "| check | measured | target | status |",
             "| --- | --- | --- | --- |"]
    lines += [f"| {n} | {v} | {t} | {st} |" for n, v, t, st in rows]
    lines.append("")
    (out / "report.md").write_bytes(("\n".join(lines) + "\n").encode())


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config file")
    common.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
    common.add_argument("--seed", type=int, default=None, help="override sampling seed")
    common.add_argument("--dry-run", action="store_true",
                        help="validate the config and exit without writing")

    parser = argparse.ArgumentParser(
        prog="cbfsynth",
        description="synthesize and validate control barrier functions from state constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample", parents=[common],
                   help="draw and classify states until the feasible fraction settles") \
        .set_defaults(func=cmd_sample)
    sub.add_parser("boundary", parents=[common],
                   help="extract the feasible-class boundary") \
        .set_defaults(func=cmd_boundary)
    sub.add_parser("fit", parents=[common],
                   help="fit barrier candidates for the configured modes") \
        .set_defaults(func=cmd_fit)
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the closed loop from the configured starts")
    p_sim.add_argument("--candidates", default=None, help="candidates file to enforce")
    p_sim.add_argument("--mode", default=None, help="fit mode whose candidates to use")
    p_sim.set_defaults(func=cmd_simulate)
    sub.add_parser("pipeline", parents=[common],
                   help="run every stage and write the summary report") \
        .set_defaults(func=cmd_pipeline)

    args = parser.parse_args(argv)
    try:
        cfg, out = _resolve(args)
        if args.dry_run:
            print("config ok (dry run); no outputs written")
            return EXIT_OK
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=_sys.stderr)
        return EXIT_INTEGRITY
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    raise SystemExit(main())

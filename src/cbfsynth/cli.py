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
from pathlib import Path

import numpy as np

from . import boundary as bnd
from . import fitter as fit
from . import sampler as smp
from . import simulator as sim
from .config import ConfigError, PipelineConfig, load_config
from .system import build_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_INTEGRITY = 4
EXIT_INFEASIBLE = 5

_MODE_ORDER = {"uniform": 0, "nonuniform": 1, "multi": 2}


class IntegrityError(Exception):
    pass


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load(loader, path: Path, **kwargs):
    """Run an artifact loader; a file it cannot parse fails integrity, not config."""
    try:
        return loader(path, **kwargs)
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"{path}: cannot parse: {exc}") from None


def _resolve(args) -> tuple[PipelineConfig, Path]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.sampling["seed"] = args.seed
        cfg.raw_sections.setdefault("sampling", {})["seed"] = str(args.seed)
    if args.out is not None:
        cfg.output_dir = args.out
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _build(cfg: PipelineConfig):
    sysm, input_box = build_system(cfg.system_name, cfg.system_params)
    return sysm, input_box


def _zero_tol(cfg: PipelineConfig) -> float:
    zero_tol = cfg.sampling["zero_tol"]
    return smp.DEFAULT_ZERO_TOL if zero_tol == "auto" else zero_tol


def _load_samples(cfg: PipelineConfig, path: Path) -> smp.SampleSet:
    """Load the sample file; one drawn for another system, box, seed or
    tolerance than the config's is stale."""
    s = _load(smp.load_samples, path)
    box = cfg.sampling_box()
    drawn = (s.system_name, s.bounds.lower.tolist(), s.bounds.upper.tolist(), s.seed, s.zero_tol)
    if drawn != (_build(cfg)[0].name, box.lower.tolist(), box.upper.tolist(),
                 cfg.sampling["seed"], _zero_tol(cfg)):
        raise IntegrityError(f"{path}: sampled for another system, box, seed or zero_tol "
                             f"than the config's")
    return s


# ---------------------------------------------------------------------------
# Stages

def _stage_sample(cfg: PipelineConfig, out: Path) -> tuple[smp.SampleSet, int]:
    sysm, input_box = _build(cfg)
    sp = cfg.sampling
    s = smp.run_sampling(sysm, input_box, cfg.sampling_box(),
                         n_min=sp["n_min"], delta=sp["delta"], growth=sp["growth"],
                         seed=sp["seed"], n_start=sp["n_start"], n_max=sp["n_max"],
                         zero_tol=_zero_tol(cfg))
    smp.save_samples(s, out / "samples.jsonl")
    deltas = s.tracker.deltas()
    lines = ["n,J,dJ"]
    for (n, j), dj in zip(s.tracker.history, deltas):
        lines.append(f"{n},{j!r},{dj!r}")
    (out / "convergence.csv").write_bytes(("\n".join(lines) + "\n").encode())
    print(f"sample: n={len(s)} J={s.tracker.jaccard:.6f} converged={s.converged} "
          f"-> {out / 'samples.jsonl'}")
    return s, (EXIT_OK if s.converged else EXIT_NOT_CONVERGED)


def _stage_boundary(cfg: PipelineConfig, out: Path, s: smp.SampleSet) -> bnd.BoundarySet:
    eps_cfg = cfg.boundary["epsilon"]
    eps = bnd.auto_epsilon(s) if eps_cfg == "auto" else float(eps_cfg)
    b = bnd.extract_boundary(s, eps, box_face_is_boundary=cfg.boundary["box_face_is_boundary"])
    bnd.save_boundary(b, out / "boundary.jsonl")
    note = " (EMPTY; epsilon may be too small)" if b.empty_warning else ""
    print(f"boundary: {len(b)} points, epsilon={eps!r}{note} -> {out / 'boundary.jsonl'}")
    return b


def _fit_config(cfg: PipelineConfig, mode: str, boundary_eps: float) -> fit.FitConfig:
    fc = cfg.fit
    margin = boundary_eps if fc["margin"] == "auto" else fc["margin"]
    return fit.FitConfig(mode=mode, num_cbfs=fc["num_cbfs"], margin=margin,
                         objective=fc["objective"], restarts=fc["restarts"],
                         iterations=fc["iterations"], population=fc["population"],
                         seed=fc["seed"], probes=fc["probes"],
                         volume_region=cfg.volume_region())


def _stage_fit(cfg: PipelineConfig, out: Path, s: smp.SampleSet, b: bnd.BoundarySet,
               checksums: dict[str, str]) -> tuple[dict[str, fit.FitResult], int]:
    sysm, input_box = _build(cfg)
    results: dict[str, fit.FitResult] = {}
    warm: list[tuple] = []
    for mode in sorted(cfg.fit["modes"], key=_MODE_ORDER.get):
        fcfg = _fit_config(cfg, mode, b.epsilon)
        # looked up per call so that wrappers installed on the module are honoured
        res = getattr(fit, f"fit_{mode}")(s, b, sysm, input_box, fcfg, warm=warm)
        results[mode] = res
        fit.save_fit(res, out / f"candidates_{mode}.json", cfg=fcfg,
                     source_checksums=checksums)
        if not res.feasible:
            print(f"fit[{mode}]: INFEASIBLE: {res.diagnostics}")
            return results, EXIT_INFEASIBLE
        ver = res.verification
        print(f"fit[{mode}]: objective={res.objective_value:.4f} "
              f"candidates={len(res.candidates)} containment={ver.containment_fraction:.4f} "
              f"boundary_ok={ver.boundary_cbf_feasible_fraction:.4f} "
              f"exists_input_ok={ver.prop2_feasible_fraction:.4f}")
        warm.append(tuple(res.candidates))
    return results, EXIT_OK


def _stage_simulate(cfg: PipelineConfig, out: Path, mode: str,
                    res: fit.FitResult, cand_checksum: str) -> list[dict]:
    sysm, input_box = _build(cfg)
    sp = cfg.simulate
    fc = sim.FilterConfig(alphas=sp["kappa"], input_box=input_box)
    manifests = []
    for idx, x0 in enumerate(sp["x_init"], start=1):
        scfg = sim.SimConfig(
            x_init=x0, x_goal=sp["x_goal"], horizon_T=sp["horizon"], dt=sp["dt"],
            kp=sp["kp"], require_safe_start=sp["require_safe_start"],
            spline_T=None if sp["spline_t"] == "auto" else sp["spline_t"],
            on_infeasible=sp["on_infeasible"],
            candidates_file=f"candidates_{mode}.json",
        )
        h0 = min(sysm.hcf.value(c.transform(x0)) + c.offset for c in res.candidates)
        if scfg.require_safe_start and h0 < 0.0:
            print(f"simulate[{mode}] start {idx} {x0.tolist()}: skipped "
                  f"(outside candidate set, min h = {h0:.4g})")
            manifests.append({"start": x0.tolist(), "skipped": True, "min_h0": h0})
            continue
        traj = sim.simulate(scfg, sysm, res.candidates, fc)
        rep = sim.check_invariance(traj, res.candidates, sysm.hcf)
        csv_path = out / f"traj_{mode}_{idx}.csv"
        csv_digest = traj.to_csv(csv_path)
        manifest = sim.run_manifest(scfg, traj, rep, cand_checksum, csv_digest)
        manifest["mode"] = mode
        manifest["skipped"] = False
        sim.save_manifest(manifest, out / f"run_{mode}_{idx}.json")
        manifests.append(manifest)
        print(f"simulate[{mode}] start {idx} {x0.tolist()}: steps={len(traj) - 1} "
              f"min_z={rep.min_z:.3e} breaches h/z={rep.h_breach_steps}/{rep.z_breach_steps} "
              f"infeasible={rep.infeasible_steps} terminal={traj.states[-1].round(4).tolist()}")
    return manifests


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
    b = _load(bnd.load_boundary, boundary_path, dim=s.bounds.dim)
    if b.source_checksum != s.checksum():
        print(f"error: {boundary_path} was extracted from a different sample file",
              file=_sys.stderr)
        return EXIT_INTEGRITY
    stray = bnd.stray_points(b, s)
    if stray:
        raise IntegrityError(f"{boundary_path}: {stray} point(s) are not feasible samples")
    checksums = {"samples": s.checksum(), "boundary": _file_digest(boundary_path)}
    _, code = _stage_fit(cfg, out, s, b, checksums)
    return code


def cmd_simulate(args, cfg: PipelineConfig, out: Path) -> int:
    mode = args.mode or sorted(cfg.fit["modes"], key=_MODE_ORDER.get)[-1]
    cand_path = Path(args.candidates) if args.candidates else out / f"candidates_{mode}.json"
    res, doc = _load(fit.load_fit, cand_path)
    if not res.feasible or not res.candidates:
        print(f"error: {cand_path} holds no feasible candidates", file=_sys.stderr)
        return EXIT_INFEASIBLE
    _stage_simulate(cfg, out, doc["mode"], res, _file_digest(cand_path))
    return EXIT_OK


def _load_stage_state(out: Path) -> dict:
    path = out / "stage_state.json"
    if path.exists():
        try:
            state = json.loads(path.read_text())
        except json.JSONDecodeError:
            return {}
        if isinstance(state, dict):
            return {stage: entry for stage, entry in state.items() if isinstance(entry, dict)}
    return {}


def _save_stage_state(out: Path, state: dict) -> None:
    (out / "stage_state.json").write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")


def cmd_pipeline(args, cfg: PipelineConfig, out: Path) -> int:
    state = _load_stage_state(out)
    new_state: dict = {}

    # sample stage (cached on config hash and file digest; a file that fails
    # to load is a cache miss, not an integrity failure)
    sample_path = out / "samples.jsonl"
    sample_hash = cfg.section_hash("system", "sampling")
    cached = state.get("sample", {})
    s = None
    if sample_path.exists() and cached.get("config_hash") == sample_hash:
        with contextlib.suppress(IntegrityError):
            s = _load_samples(cfg, sample_path)
    if s is not None and s.checksum() == cached.get("output"):
        print(f"sample: reusing {sample_path} (n={len(s)})")
        code = EXIT_OK if s.converged else EXIT_NOT_CONVERGED
    else:
        s, code = _stage_sample(cfg, out)
    if code != EXIT_OK:
        _save_stage_state(out, new_state)
        return code
    new_state["sample"] = {"config_hash": sample_hash, "output": s.checksum()}

    # boundary stage
    boundary_path = out / "boundary.jsonl"
    boundary_hash = cfg.section_hash("system", "sampling", "boundary")
    cached = state.get("boundary", {})
    if boundary_path.exists() and cached.get("config_hash") == boundary_hash \
            and cached.get("input") == s.checksum() \
            and cached.get("output") == _file_digest(boundary_path):
        b = _load(bnd.load_boundary, boundary_path, dim=s.bounds.dim)
        print(f"boundary: reusing {boundary_path} ({len(b)} points)")
    else:
        b = _stage_boundary(cfg, out, s)
    if b.source_checksum != s.checksum():
        print("error: boundary artifact does not match the sample file", file=_sys.stderr)
        return EXIT_INTEGRITY
    new_state["boundary"] = {"config_hash": boundary_hash, "input": s.checksum(),
                             "output": _file_digest(boundary_path)}

    # fit stage
    checksums = {"samples": s.checksum(), "boundary": _file_digest(boundary_path)}
    fit_hash = cfg.section_hash("system", "sampling", "boundary", "fit")
    modes = sorted(cfg.fit["modes"], key=_MODE_ORDER.get)
    cached = state.get("fit", {})
    outputs = cached.get("outputs")
    reusable = (cached.get("config_hash") == fit_hash
                and cached.get("inputs") == checksums
                and isinstance(outputs, dict)
                and all((out / f"candidates_{m}.json").exists()
                        and outputs.get(m) == _file_digest(out / f"candidates_{m}.json")
                        for m in modes))
    results: dict[str, fit.FitResult] = {}
    if reusable:
        for m in modes:
            results[m], _ = _load(fit.load_fit, out / f"candidates_{m}.json")
        print(f"fit: reusing candidates for modes {modes}")
    else:
        results, code = _stage_fit(cfg, out, s, b, checksums)
        if code != EXIT_OK:
            _save_stage_state(out, new_state)
            return code
    new_state["fit"] = {"config_hash": fit_hash, "inputs": checksums,
                        "outputs": {m: _file_digest(out / f"candidates_{m}.json")
                                    for m in modes}}

    # simulate stage (always re-run; cheap and deterministic)
    all_manifests: dict[str, list[dict]] = {}
    for mode in modes:
        cand_digest = _file_digest(out / f"candidates_{mode}.json")
        all_manifests[mode] = _stage_simulate(cfg, out, mode, results[mode], cand_digest)
    new_state["simulate"] = {"config_hash": cfg.section_hash(*_SCHEMA_ALL),
                             "modes": modes}

    _write_report(cfg, out, s, b, results, all_manifests)
    _save_stage_state(out, new_state)
    print(f"report -> {out / 'report.md'}")
    return EXIT_OK


_SCHEMA_ALL = ("system", "sampling", "boundary", "fit", "simulate", "output")


def _is_reference_setup(cfg: PipelineConfig) -> bool:
    """The double-integrator configuration the report's targets are stated for."""
    if cfg.system_name != "double_integrator":
        return False
    p = dict({"gamma1": 0.0, "gamma2": 0.1, "u_min": -300.0, "u_max": 300.0},
             **cfg.system_params)
    box = cfg.sampling_box()
    return (p == {"gamma1": 0.0, "gamma2": 0.1, "u_min": -300.0, "u_max": 300.0}
            and np.array_equal(box.lower, [-10.0, -40.0])
            and np.array_equal(box.upper, [0.0, 40.0]))


def _write_report(cfg: PipelineConfig, out: Path, s: smp.SampleSet, b: bnd.BoundarySet,
                  results: dict[str, fit.FitResult], manifests: dict[str, list[dict]]) -> None:
    ref = _is_reference_setup(cfg)
    rows: list[tuple[str, str, str, str]] = []

    def row(name: str, value: str, target: str, ok: bool | None):
        status = "n/a" if ok is None else ("pass" if ok else "FAIL")
        rows.append((name, value, target, status))

    j = s.tracker.jaccard
    row("feasible-fraction convergence",
        f"n = {len(s)}, J = {j:.5f}, converged = {s.converged}",
        "converged by n = 177147 with J = 0.819 +/- 0.02" if ref else "converged",
        (s.converged and len(s) <= 177147 and abs(j - 0.819) <= 0.02) if ref else s.converged)

    if ref and len(b):
        cap_pts = b.points[b.points[:, 0] < -3.5]
        cap = float(cap_pts[:, 1].max()) if len(cap_pts) else float("nan")
        row("boundary velocity cap", f"{cap:.3f}", "30 +/- 1.5", abs(cap - 30.0) <= 1.5)
    else:
        row("boundary points", str(len(b)), "nonempty", len(b) > 0)

    objs = {m: r.objective_value for m, r in results.items()}
    for m in sorted(results, key=_MODE_ORDER.get):
        r = results[m]
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

    for m in sorted(manifests, key=_MODE_ORDER.get):
        ran = [mf for mf in manifests[m] if not mf.get("skipped")]
        skipped = len(manifests[m]) - len(ran)
        breaches = sum(mf["breaches"]["h_breach_steps"] + mf["breaches"]["z_breach_steps"]
                       for mf in ran)
        infeas = sum(mf["breaches"]["infeasible_steps"] for mf in ran)
        row(f"closed-loop safety [{m}]",
            f"{len(ran)} runs, {skipped} skipped, breaches = {breaches}, "
            f"infeasible steps = {infeas}",
            "zero breaches and infeasible steps", breaches == 0 and infeas == 0)
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

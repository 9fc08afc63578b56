"""Command-line driver: wires a run configuration to the study pipelines
and emits tables, traces, and reports.

Modes: resolvent (one manufactured solve + domain-condition report),
convergence (error/rate tables), infsup (discrete inf-sup constants),
evolve (backward-Euler energy trace), certify (dissipativity, kernel
coercivity, and oracle-equivalence checks).  Exit status is 0 exactly when
every check invoked by the mode passed at its stated tolerance; a usage
error exits 2, and an error raised during the run exits 1 tagged with the
innermost package module of its traceback.

Configuration comes from flags, optionally seeded by a plain-text
``key = value`` file (flags win); the output directory falls back to the
FSI_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import analysis, fem, mesh as meshmod, semigroup, solver, sparse as sla

MODES = ("resolvent", "convergence", "infsup", "evolve", "certify")
_SINGLE_LEVEL_MODES = ("resolvent", "evolve")
_DEFAULT_LEVELS = {"resolvent": [1], "convergence": [0, 1, 2, 3],
                   "infsup": [0, 1, 2, 3], "evolve": [1], "certify": [0, 1]}


# RunConfig field -> the flag that sets it
_FLAGS = {"shift": "--lambda", "lame_lambda": "--lame-lambda", "lame_mu": "--mu",
          "t_final": "--t-final", "n_steps": "--steps"}


@dataclass
class RunConfig:
    mode: str
    levels: list = field(default_factory=list)
    shift: float = 1.0
    lame_lambda: float = 1.0
    lame_mu: float = 1.0
    t_final: float = 1.0
    n_steps: int = 100
    out_dir: str = "."
    seed: int = 0

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.levels:
            raise ValueError("--levels: levels must contain at least one entry")
        if any(l < 0 for l in self.levels):
            raise ValueError(f"--levels: levels must be nonnegative, got {self.levels}")
        if max(self.levels) > meshmod.MAX_LEVEL:
            raise ValueError(f"--levels: levels above {meshmod.MAX_LEVEL} are not "
                             f"supported, got {self.levels}")
        if self.levels != sorted(set(self.levels)):
            raise ValueError("--levels: levels must be ascending and distinct, "
                             f"got {self.levels}")
        if self.mode in _SINGLE_LEVEL_MODES and len(self.levels) > 1:
            raise ValueError(f"--levels: mode {self.mode} runs one level, "
                             f"got {self.levels}")
        if self.mode == "certify" and self.levels != _DEFAULT_LEVELS["certify"]:
            raise ValueError("--levels: mode certify runs levels 0 and 1, "
                             f"got {self.levels}")
        if self.seed < 0:
            raise ValueError(f"--seed: must be a non-negative integer, got {self.seed}")
        # the parameter objects check their own fields and name the bad
        # one first in the message; the usage error adds its flag
        try:
            self.params
            if self.mode == "evolve":
                self.evolution
        except ValueError as err:
            name = str(err).split(" ", 1)[0]
            raise ValueError(f"{_FLAGS.get(name, name)}: {err}") from err

    @property
    def params(self):
        return fem.MaterialParams(lame_lambda=self.lame_lambda,
                                  lame_mu=self.lame_mu, shift=self.shift)

    @property
    def evolution(self):
        return semigroup.EvolutionConfig(t_final=self.t_final, n_steps=self.n_steps)


def _parse_levels(text):
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ValueError(f"--levels: cannot parse {text!r}: {err}") from err


def _read_config_file(path):
    """Each key of the file, '-' read as '_', with its line number and value."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            key = key.replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = (lineno, val)
    return values


def _build_parser():
    p = argparse.ArgumentParser(
        prog="fsifem",
        description="Coupled Stokes/elasticity resolvent studies on the "
                    "square-annulus benchmark.")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--levels", help="comma-separated refinement levels, e.g. 0,1,2,3")
    p.add_argument("--lambda", dest="shift", type=float, help="resolvent shift (> 0)")
    p.add_argument("--lame-lambda", dest="lame_lambda", type=float,
                   help="first Lame modulus (>= 0)")
    p.add_argument("--mu", dest="lame_mu", type=float, help="shear modulus (> 0)")
    p.add_argument("--t-final", dest="t_final", type=float, help="evolution end time")
    p.add_argument("--steps", dest="n_steps", type=int, help="number of Euler steps")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=int, help="seed for randomized property runs")
    p.add_argument("--config", help="plain-text key = value configuration file")
    return p


def build_config(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag_val, key, convert, fallback):
        line = file_vals.pop(key, None)
        if flag_val is not None:
            return flag_val
        return fallback if line is None else convert(line[1])

    mode = pick(args.mode, "mode", str, None)
    if mode is None:
        raise ValueError("mode is required (flag --mode or config key 'mode')")
    levels = pick(args.levels, "levels", str, None)
    levels = _parse_levels(levels) if levels is not None else list(_DEFAULT_LEVELS[mode])
    out_env = os.environ.get("FSI_OUT_DIR")
    cfg = RunConfig(
        mode=mode,
        levels=levels,
        shift=pick(args.shift, "lambda", float, 1.0),
        lame_lambda=pick(args.lame_lambda, "lame_lambda", float, 1.0),
        lame_mu=pick(args.lame_mu, "mu", float, 1.0),
        t_final=pick(args.t_final, "t_final", float, 1.0),
        n_steps=pick(args.n_steps, "steps", int, 100),
        out_dir=pick(args.out_dir, "out", str, out_env if out_env else "."),
        seed=pick(args.seed, "seed", int, 0),
    )
    # the keys read above are the flag names; any other key is a mistake
    for key, (lineno, _) in file_vals.items():
        raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
    cfg.validate()
    return cfg


def _write(cfg, name, text):
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _vector_csv(values):
    lines = ["dof_id,value"]
    lines += [f"{k},{float(v)!r}" for k, v in enumerate(values)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_resolvent(cfg: RunConfig) -> bool:
    level = cfg.levels[0]
    case = analysis.manufactured_case(cfg.shift)
    identity = analysis.verify_data_identity(case)
    space = fem.build_space(meshmod.generate(level))
    data = analysis.manufactured_data(space, case)
    state, solve_rep = solver.solve_resolvent(space, cfg.params, data)
    err = analysis.error_norms(space, state, state.pi, case, cfg.params)
    q0, c0 = solver.decompose_pressure(space, state.pi)
    c0_flux = solver.recover_c0(space, cfg.params, state, q0, data)
    report = solver.check_domain_conditions(space, cfg.params, state, state.pi, data)

    _write(cfg, "state_u.csv", _vector_csv(state.u))
    _write(cfg, "state_w.csv", _vector_csv(state.w))
    _write(cfg, "state_z.csv", _vector_csv(state.z))
    _write(cfg, "pressure.csv", _vector_csv(state.pi))
    payload = {
        "level": level,
        "solve_residual": solve_rep.residual,
        "data_identity_residual": identity,
        "fluid_h1_error": err.eu_h1,
        "pressure_l2_error": err.epi_l2,
        "solid_h1_error": err.ew_h1,
        "pressure_c0_volume": c0,
        "pressure_c0_interface": c0_flux,
        "conditions": report.as_dict(),
    }
    path = _write(cfg, "domain_conditions.json", json.dumps(payload, indent=2) + "\n")

    ok = report.all_passed and identity <= 1e-12
    print(f"resolvent: level {level}, fluid H1 error {err.eu_h1:.6e}, "
          f"pressure c0 {c0:.3e} (interface recovery {c0_flux:.3e})")
    for c in report.checks:
        print(f"  {c.name}: residual {c.residual:.3e} <= {c.tolerance:.0e}: "
              f"{'PASS' if c.passed else 'FAIL'}")
    print(f"  report: {path}")
    return ok


def run_convergence(cfg: RunConfig) -> bool:
    report = analysis.convergence_study(cfg.levels, cfg.params)
    _write(cfg, "convergence.csv", report.convergence_csv())
    _write(cfg, "rates.csv", report.rates_csv())
    print("elements  hypotenuse    fluid_h1      pressure_l2   solid_h1")
    for r in report.rows:
        if r.failed:
            print(f"{r.elements:8d}  {r.hypotenuse:<12.6g}  FAILED: {r.failed}")
        else:
            print(f"{r.elements:8d}  {r.hypotenuse:<12.6g}  {r.eu_h1:<12.6e} "
                  f"{r.epi_l2:<12.6e}  {r.ew_h1:<12.6e}")
    fmt = lambda v: " -- " if v is None else f"{v:.3f}"
    print("rates (fluid / pressure / solid):")
    for k, (f, p, s) in enumerate(zip(report.fluid_rates, report.pressure_rates,
                                      report.solid_rates)):
        print(f"  mesh{k+1}/mesh{k+2}: {fmt(f)} / {fmt(p)} / {fmt(s)}")
    print(f"note: {report.note}")
    return all(r.failed is None for r in report.rows)


def run_infsup(cfg: RunConfig) -> bool:
    report = analysis.infsup_study(cfg.levels)
    _write(cfg, "infsup.csv", report.csv())
    for r in report.rows:
        print(f"level {r.level}: h = {r.hypotenuse:.6g}, beta_h = {r.beta:.8f}")
    print(f"relative spread: {report.spread:.3%} ({report.convention})")
    return all(r.beta > 0 for r in report.rows)


def _evolve_initial_state(space, case, params):
    u = fem.interpolate(space, case.velocity)
    u[space.constrained_mask] = 0.0
    state = solver.FsiState(u, np.zeros(space.num_solid_dofs),
                            np.zeros(space.num_solid_dofs))
    scale = semigroup.h_norm(space, state, params)
    state.u /= scale
    return state


def run_evolve(cfg: RunConfig) -> bool:
    level = cfg.levels[0]
    space = fem.build_space(meshmod.generate(level))
    case = analysis.manufactured_case(cfg.shift)
    initial = _evolve_initial_state(space, case, cfg.params)
    config = cfg.evolution
    result = semigroup.evolve(space, cfg.params, initial, config)
    path = _write(cfg, "energy_trace.csv", result.trace.csv())
    totals = [row.e_total for row in result.trace.rows]
    monotone = all(totals[k + 1] <= totals[k] * (1 + 1e-12) for k in range(len(totals) - 1))
    balanced = result.balance_residual <= 1e-6
    print(f"evolve: level {level}, dt = {config.dt:g}, {cfg.n_steps} steps")
    print(f"  energy {totals[0]:.6e} -> {totals[-1]:.6e}, "
          f"monotone: {'PASS' if monotone else 'FAIL'}")
    print(f"  balance residual {result.balance_residual:.3e} <= 1e-06: "
          f"{'PASS' if balanced else 'FAIL'}")
    print(f"  trace: {path}")
    return monotone and balanced


def _certify_lines(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    params = cfg.params
    lines = []

    def record(name, value, tol, ok):
        lines.append(f"{name} value={float(value)!r} tolerance={tol!r} "
                     f"{'PASS' if ok else 'FAIL'}")
        return ok

    # dissipativity identity and sign, level 1, 50 random data vectors
    space1 = fem.build_space(meshmod.generate(1))
    worst_res, worst_sign = 0.0, -math.inf
    for _ in range(50):
        data = solver.data_from_vectors(
            space1,
            rng.standard_normal(space1.num_velocity_dofs),
            rng.standard_normal(space1.num_solid_dofs),
            rng.standard_normal(space1.num_solid_dofs))
        qform, dis = semigroup.generator_quadratic_form(space1, params, data)
        worst_res = max(worst_res, abs(qform + dis) / max(1.0, dis))
        worst_sign = max(worst_sign, qform / max(1.0, dis))
    ok = record("energy_identity_residual", worst_res, 1e-8, worst_res <= 1e-8)
    ok &= record("dissipativity_sign_margin", worst_sign, 1e-10, worst_sign <= 1e-10)

    # kernel coercivity, level 1, 100 random divergence-free vectors
    fops = fem.fluid_operators(space1)
    gradient = fem.assemble(space1, "fluid_gradient")
    k_free = solver.free_velocity_block(space1, fops.strain)
    h1_free = (solver.free_velocity_block(space1, fops.mass)
               + solver.free_velocity_block(space1, gradient))
    project = solver.kernel_projection(space1)
    a_free = solver.schur_form(space1, params)
    worst_gap, alpha = -math.inf, math.inf
    for _ in range(100):
        v_ker = project(rng.standard_normal(space1.free_velocity_dofs.size))
        a_vv = sla.dot(v_ker, a_free @ v_ker)
        eps_vv = sla.dot(v_ker, k_free @ v_ker)
        h1_vv = sla.dot(v_ker, h1_free @ v_ker)
        worst_gap = max(worst_gap, (eps_vv - a_vv) / max(1.0, a_vv))
        alpha = min(alpha, eps_vv / h1_vv)
    ok &= record("kernel_coercivity_gap", worst_gap, 1e-12, worst_gap <= 1e-12)
    ok &= record("korn_poincare_alpha", alpha, 0.0, alpha > 0.0)

    # oracle equivalence, level 0
    space0 = fem.build_space(meshmod.generate(0))
    data0 = solver.data_from_vectors(
        space0,
        rng.standard_normal(space0.num_velocity_dofs),
        rng.standard_normal(space0.num_solid_dofs),
        rng.standard_normal(space0.num_solid_dofs))
    schur_state, _ = solver.solve_resolvent(space0, params, data0)
    mono_state = solver.monolithic_solve(space0, params, data0)
    rel = lambda a, b: float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    diff = max(rel(schur_state.u, mono_state.u), rel(schur_state.pi, mono_state.pi),
               rel(schur_state.w, mono_state.w))
    ok &= record("oracle_equivalence", diff, 1e-10, diff <= 1e-10)

    return lines, ok


def run_certify(cfg: RunConfig) -> bool:
    lines, ok = _certify_lines(cfg)
    text = "\n".join(lines + [f"overall {'PASS' if ok else 'FAIL'}"]) + "\n"
    path = _write(cfg, "certify.txt", text)
    sys.stdout.write(text)
    print(f"report: {path}")
    return ok


_RUNNERS = {"resolvent": run_resolvent, "convergence": run_convergence,
            "infsup": run_infsup, "evolve": run_evolve, "certify": run_certify}


def run(cfg: RunConfig) -> int:
    return 0 if _RUNNERS[cfg.mode](cfg) else 1


def _error_module(err):
    """The innermost fsifem module in the traceback of `err`: the layer
    that raised it, or that called out of the package when it was raised.
    Falls back to the module of the exception's type."""
    module = type(err).__module__
    for frame, _ in traceback.walk_tb(err.__traceback__):
        name = frame.f_globals.get("__name__", "")
        if name.startswith("fsifem."):
            module = name
    return module.rsplit(".", 1)[-1]


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"usage error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except Exception as err:   # tag failures with the originating module
        print(f"[{_error_module(err)}] {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

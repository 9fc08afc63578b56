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
``key = value`` file (flags win).  The argparse parser is the one table of
settings, with each flag's type, choices and default.  A config key is
its flag's name, ``-`` or ``_`` alike, and its value is parsed by that
flag's type and checked against its choices, so a bad value is a usage
error naming the file, line and key.  The output directory falls back to
the FSI_OUT_DIR environment variable.  Every CSV artifact is written by
`_csv`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from . import analysis, fem, mesh as meshmod, semigroup, solver, sparse as sla

MODES = ("resolvent", "convergence", "infsup", "evolve", "certify")
_SINGLE_LEVEL_MODES = ("resolvent", "evolve")
_DEFAULT_LEVELS = {"resolvent": [1], "convergence": [0, 1, 2, 3],
                   "infsup": [0, 1, 2, 3], "evolve": [1], "certify": [0, 1]}
_CONVERGENCE_NOTE = ("hypotenuse lengths follow exact halving of sqrt(2)/6; "
                     "published tables list one non-halved value in row 5, "
                     "which this study does not reproduce")
_INFSUP_CONVENTION = "velocity Gram |phi|_1 = ||eps(phi)||_0, pressure mass M_p"


def _validate(cfg):
    """Raise ValueError on a bad setting, the message starting with the
    field at fault, as the parameter objects' messages do."""
    if any(l < 0 for l in cfg.levels):
        raise ValueError(f"levels must be nonnegative, got {cfg.levels}")
    if any(l > meshmod.MAX_LEVEL for l in cfg.levels):
        raise ValueError(f"levels above {meshmod.MAX_LEVEL} are not "
                         f"supported, got {cfg.levels}")
    analysis.check_levels(cfg.levels)
    if cfg.mode in _SINGLE_LEVEL_MODES and len(cfg.levels) > 1:
        raise ValueError(f"levels must be one level in mode {cfg.mode}, got {cfg.levels}")
    if cfg.mode == "certify" and cfg.levels != _DEFAULT_LEVELS["certify"]:
        raise ValueError(f"levels must be 0,1 in mode certify, got {cfg.levels}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {cfg.seed}")
    if not cfg.out_dir:
        raise ValueError("out_dir must name a directory, got an empty path")


def _parse_levels(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ValueError(f"levels must be comma-separated integers, "
                         f"cannot parse {text!r}: {err}") from err


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
    """The parser, and the action of each setting's flag keyed by its
    config key: the flag's name with '-' read as '_'.  --levels defaults
    by mode."""
    p = argparse.ArgumentParser(
        prog="fsifem",
        description="Coupled Stokes/elasticity resolvent studies on the "
                    "square-annulus benchmark.")
    settings = [
        p.add_argument("--mode", choices=MODES),
        p.add_argument("--levels", help="comma-separated refinement levels, e.g. 0,1,2,3"),
        p.add_argument("--lambda", dest="shift", type=float, default=1.0,
                       help="resolvent shift (> 0)"),
        p.add_argument("--lame-lambda", type=float, default=1.0,
                       help="first Lame modulus (>= 0)"),
        p.add_argument("--mu", dest="lame_mu", type=float, default=1.0,
                       help="shear modulus (> 0)"),
        p.add_argument("--t-final", type=float, default=1.0, help="evolution end time"),
        p.add_argument("--steps", dest="n_steps", type=int, default=100,
                       help="number of Euler steps"),
        p.add_argument("--out", dest="out_dir",
                       default=os.environ.get("FSI_OUT_DIR") or ".",
                       help="output directory"),
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property runs"),
    ]
    p.add_argument("--config", help="plain-text key = value configuration file")
    return p, {a.option_strings[0][2:].replace("-", "_"): a for a in settings}


def _config_value(action, text, where):
    """`text` parsed as the flag of `action` parses its argument.  The
    levels text is parsed after the flags are merged in, and checked here
    so that a bad file value names its line."""
    convert = action.type or str
    try:
        value = convert(text)
    except ValueError:
        raise ValueError(f"{where}: invalid {convert.__name__} value {text!r}") from None
    if action.dest == "levels":
        try:
            _parse_levels(value)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{where}: invalid choice {value!r} "
                         f"(choose from {', '.join(action.choices)})")
    return value


def build_config(argv) -> argparse.Namespace:
    """The run's settings, one attribute per dest of the parser, with the
    material `params` they make and, in evolve mode, the `evolution`."""
    parser, settings = _build_parser()
    cfg = parser.parse_args(argv)
    if cfg.config:
        # the file's values stand in for the defaults, so a flag wins
        seeded = argparse.Namespace()
        for key, (lineno, text) in _read_config_file(cfg.config).items():
            if key not in settings:
                raise ValueError(f"{cfg.config}:{lineno}: unknown key {key!r}")
            action = settings[key]
            setattr(seeded, action.dest,
                    _config_value(action, text, f"{cfg.config}:{lineno}: key {key!r}"))
        cfg = parser.parse_args(argv, seeded)
    if cfg.mode is None:
        raise ValueError("mode is required (flag --mode or config key 'mode')")
    try:
        cfg.levels = (list(_DEFAULT_LEVELS[cfg.mode]) if cfg.levels is None
                      else _parse_levels(cfg.levels))
        _validate(cfg)
        cfg.params = fem.MaterialParams(lame_lambda=cfg.lame_lambda,
                                        lame_mu=cfg.lame_mu, shift=cfg.shift)
        if cfg.mode == "evolve":
            cfg.evolution = semigroup.EvolutionConfig(t_final=cfg.t_final,
                                                      n_steps=cfg.n_steps)
    except ValueError as err:
        # the message names the field first; the usage error adds its flag
        field = str(err).split(" ", 1)[0]
        flag = {a.dest: a.option_strings[0] for a in settings.values()}
        raise ValueError(f"{flag.get(field, field)}: {err}") from err
    return cfg


def _write(cfg, name, text):
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _csv(header, rows):
    """The one format of every CSV artifact: the `header` line, then one
    line per row, an integer as is, a float in its shortest round-trip
    form (repr) and a missing value as an em dash."""
    def cell(value):
        if value is None:
            return "—"
        if isinstance(value, (str, int, np.integer)):
            return str(value)
        return repr(float(value))

    return "".join(f"{line}\n" for line in
                   [header, *(",".join(map(cell, row)) for row in rows)])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_resolvent(cfg) -> bool:
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

    for name, values in (("state_u", state.u), ("state_w", state.w),
                         ("state_z", state.z), ("pressure", state.pi)):
        _write(cfg, f"{name}.csv", _csv("dof_id,value", enumerate(values)))
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

    ok = report.all_passed and identity <= analysis.DATA_IDENTITY_TOL
    print(f"resolvent: level {level}, fluid H1 error {err.eu_h1:.6e}, "
          f"pressure c0 {c0:.3e} (interface recovery {c0_flux:.3e})")
    for c in report.checks:
        print(f"  {c.name}: residual {c.residual:.3e} <= {c.tolerance:.0e}: "
              f"{'PASS' if c.passed else 'FAIL'}")
    print(f"  report: {path}")
    return ok


def run_convergence(cfg) -> bool:
    report = analysis.convergence_study(cfg.levels, cfg.params)
    _write(cfg, "convergence.csv", _csv(
        "elements,hypotenuse,fluid_h1,pressure_l2,solid_h1,fluid_eps_seminorm,"
        "solid_h1_full,status",
        [(r.elements, r.hypotenuse, r.eu_h1, r.epi_l2, r.ew_h1, r.eu_seminorm,
          r.ew_h1_full, r.failed or "ok") for r in report.rows]))
    rates = list(zip([f"mesh{k + 1}/mesh{k + 2}" for k in range(len(report.rows) - 1)],
                     report.fluid_rates, report.pressure_rates, report.solid_rates))
    _write(cfg, "rates.csv", _csv("pair,fluid_h1,pressure_l2,solid_h1", rates))
    print("elements  hypotenuse    fluid_h1      pressure_l2   solid_h1")
    for r in report.rows:
        if r.failed:
            print(f"{r.elements:8d}  {r.hypotenuse:<12.6g}  FAILED: {r.failed}")
        else:
            print(f"{r.elements:8d}  {r.hypotenuse:<12.6g}  {r.eu_h1:<12.6e} "
                  f"{r.epi_l2:<12.6e}  {r.ew_h1:<12.6e}")
    fmt = lambda v: " -- " if v is None else f"{v:.3f}"
    print("rates (fluid / pressure / solid):")
    for pair, f, p, s in rates:
        print(f"  {pair}: {fmt(f)} / {fmt(p)} / {fmt(s)}")
    print(f"note: {_CONVERGENCE_NOTE}")
    return all(r.failed is None for r in report.rows)


def run_infsup(cfg) -> bool:
    report = analysis.infsup_study(cfg.levels)
    _write(cfg, "infsup.csv", _csv("level,hypotenuse,beta_h",
                                   [(r.level, r.hypotenuse, r.beta) for r in report.rows]))
    for r in report.rows:
        print(f"level {r.level}: h = {r.hypotenuse:.6g}, beta_h = {r.beta:.8f}")
    print(f"relative spread: {report.spread:.3%} ({_INFSUP_CONVENTION})")
    return True


def _evolve_initial_state(space, case, params):
    u = fem.interpolate(space, case.velocity)
    u[space.constrained_mask] = 0.0
    state = solver.FsiState(u, np.zeros(space.num_solid_dofs),
                            np.zeros(space.num_solid_dofs))
    scale = semigroup.h_norm(space, state, params)
    state.u /= scale
    return state


def run_evolve(cfg) -> bool:
    level = cfg.levels[0]
    space = fem.build_space(meshmod.generate(level))
    case = analysis.manufactured_case(cfg.shift)
    initial = _evolve_initial_state(space, case, cfg.params)
    result = semigroup.evolve(space, cfg.params, initial, cfg.evolution)
    path = _write(cfg, "energy_trace.csv", _csv(
        "step,time,E_total,E_fluid,E_solid_potential,E_solid_kinetic,dissipation",
        [(r.step, r.time, r.e_total, r.e_fluid, r.e_solid_potential, r.e_solid_kinetic,
          r.dissipation) for r in result.trace.rows]))
    totals = [row.e_total for row in result.trace.rows]
    monotone = all(totals[k + 1] <= totals[k] * (1 + 1e-12) for k in range(len(totals) - 1))
    balanced = result.balance_residual <= 1e-6
    print(f"evolve: level {level}, dt = {cfg.evolution.dt:g}, {cfg.n_steps} steps")
    print(f"  energy {totals[0]:.6e} -> {totals[-1]:.6e}, "
          f"monotone: {'PASS' if monotone else 'FAIL'}")
    print(f"  balance residual {result.balance_residual:.3e} <= 1e-06: "
          f"{'PASS' if balanced else 'FAIL'}")
    print(f"  trace: {path}")
    return monotone and balanced


def _certify_lines(cfg):
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
    gradient = fem.assemble(space1, "fluid_gradient")
    k_free = solver.free_velocity_block(space1, fem.fluid_operators(space1).strain)
    h1_free = (solver.free_velocity_block(space1, fem.fluid_mass(space1))
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
    state, _ = solver.solve_resolvent(space0, params, data0)
    mono_state = solver.monolithic_solve(space0, params, data0)
    rel = lambda a, b: float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
    diff = max(rel(state.u, mono_state.u), rel(state.pi, mono_state.pi),
               rel(state.w, mono_state.w))
    ok &= record("oracle_equivalence", diff, 1e-10, diff <= 1e-10)

    return lines, ok


def run_certify(cfg) -> bool:
    lines, ok = _certify_lines(cfg)
    text = "\n".join(lines + [f"overall {'PASS' if ok else 'FAIL'}"]) + "\n"
    path = _write(cfg, "certify.txt", text)
    sys.stdout.write(text)
    print(f"report: {path}")
    return ok


_RUNNERS = {"resolvent": run_resolvent, "convergence": run_convergence,
            "infsup": run_infsup, "evolve": run_evolve, "certify": run_certify}


def run(cfg) -> int:
    return 0 if _RUNNERS[cfg.mode](cfg) else 1


def _error_module(err):
    """The innermost fsifem module in the traceback of `err`: the layer
    that raised it, or that called out of the package when it was raised.
    A module run as a script (`python -m fsifem.cli`) is named by its
    spec, not `__main__`.  Falls back to the module of the exception's
    type."""
    module = type(err).__module__
    for frame, _ in traceback.walk_tb(err.__traceback__):
        spec = frame.f_globals.get("__spec__")
        name = spec.name if spec is not None else frame.f_globals.get("__name__", "")
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

"""Per-layer timing for a traced benchmark pass, measured from outside.

`install()` replaces public functions of the fsifem modules with wrappers
that time each call and record sizes, and returns the `Tracer` holding the
records.  Nothing under `src/` is edited: the wrappers exist only in the
benchmark process that installs them.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so `semigroup.step_self_s`
is one Euler step without its resolvent solve.  The time each wrapper
spends outside its wrapped call (RSS reads, bookkeeping, size reads) is
summed as `trace.overhead_s`, the cost of tracing itself.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


def max_rss_mb():
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Span:
    duration: float
    self_time: float
    rss_growth_mb: float


class Tracer:
    def __init__(self):
        self.spans = defaultdict(list)
        self.counts = defaultdict(int)
        self.maxima = {}
        self.sizes = {}
        # the wrappers' own time outside the wrapped calls, summed
        self.overhead_s = 0.0
        self._child_time = []

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a timed wrapper recorded under `name`.

        `after(args, result)` runs once the call has returned, outside the
        timed interval, to read sizes off the arguments or the result.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            rss0 = max_rss_mb()
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                elapsed = t1 - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
            self.spans[name].append(
                Span(elapsed, elapsed - children, max_rss_mb() - rss0))
            if after is not None:
                after(args, result)
            self.overhead_s += (t0 - enter) + (time.perf_counter() - t1)
            return result

        setattr(owner, attr, traced)

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def total(self, name):
        return sum(s.duration for s in self.spans[name])

    def p50(self, name, field="duration"):
        values = [getattr(s, field) for s in self.spans[name]]
        return statistics.median(values) if values else 0.0

    def rss_growth(self, name):
        return sum(s.rss_growth_mb for s in self.spans[name])


def install(fsifem_modules):
    """Wrap the layer boundaries of an imported fsifem; returns the Tracer."""
    mesh, fem, sparse, solver, analysis, semigroup = fsifem_modules
    tracer = Tracer()

    def space_sizes(args, space):
        tracer.sizes.update({
            "fem.velocity_dofs": space.num_velocity_dofs,
            "fem.pressure_dofs": space.num_pressure_dofs,
            "fem.solid_dofs": space.num_solid_dofs,
            "fem.iface_dofs": space.num_iface_dofs,
        })

    def operator_sizes(args, _):
        op = args[0]
        tracer.sizes["solver.saddle_n"] = op.saddle.shape[0]
        tracer.sizes["solver.saddle_nnz"] = op.saddle.nnz

    def factor_sizes(args, factor):
        # SuperLU.nnz is the fill of L + U; reading .L or .U would copy
        # both factors.
        tracer.maximum("sparse.lu_nnz", factor._lu.nnz)
        tracer.maximum("sparse.pivot_growth_max", factor.pivot_growth)

    def solve_quality(args, result):
        tracer.maximum("sparse.solve_residual_max", result[1].residual)

    inverse_iteration = sparse.inverse_iteration

    @functools.wraps(inverse_iteration)
    def counting_inverse_iteration(apply_s_inverse, *args, **kwargs):
        def counted(block):
            tracer.counts["sparse.eig_applies"] += 1
            return apply_s_inverse(block)
        return inverse_iteration(counted, *args, **kwargs)

    sparse.inverse_iteration = counting_inverse_iteration

    tracer.wrap(mesh, "generate", "mesh.generate")
    tracer.wrap(fem, "build_space", "fem.build_space", after=space_sizes)
    tracer.wrap(fem, "fluid_operators", "fem.fluid_operators")
    tracer.wrap(fem, "solid_operators", "fem.solid_operators")
    tracer.wrap(fem, "assemble_fluid_load", "fem.fluid_load")
    tracer.wrap(sparse, "factorize", "sparse.factorize", after=factor_sizes)
    tracer.wrap(sparse.Factorization, "solve", "sparse.solve", after=solve_quality)
    tracer.wrap(sparse, "inverse_iteration", "sparse.inverse_iteration")
    tracer.wrap(solver, "dirichlet_map", "solver.dirichlet_map")
    tracer.wrap(solver.ResolventOperator, "__init__", "solver.operator_build",
                after=operator_sizes)
    tracer.wrap(solver.ResolventOperator, "solve", "solver.solve")
    tracer.wrap(solver, "check_domain_conditions", "solver.domain_conditions")
    tracer.wrap(analysis, "error_norms", "analysis.error_norms")
    tracer.wrap(analysis, "infsup_beta", "analysis.infsup_beta")
    tracer.wrap(semigroup.Stepper, "step", "semigroup.step")
    return tracer


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass.

    Returns (metrics, absent): `absent` names the metrics of layers the
    workload never reached; those read 0 in `metrics`.
    """
    t = tracer
    sources = {
        "mesh.generate_s": ("mesh.generate", t.total("mesh.generate")),
        "fem.build_space_s": ("fem.build_space", t.total("fem.build_space")),
        "fem.fluid_operators_s": ("fem.fluid_operators", t.total("fem.fluid_operators")),
        "fem.solid_operators_s": ("fem.solid_operators", t.total("fem.solid_operators")),
        "fem.fluid_load_s": ("fem.fluid_load", t.total("fem.fluid_load")),
        "solver.dirichlet_map_s": ("solver.dirichlet_map", t.total("solver.dirichlet_map")),
        "solver.operator_build_s": ("solver.operator_build",
                                    t.total("solver.operator_build")),
        "solver.solve_s": ("solver.solve", t.p50("solver.solve")),
        "solver.solve_calls": ("solver.solve", len(t.spans["solver.solve"])),
        "solver.domain_conditions_s": ("solver.domain_conditions",
                                       t.total("solver.domain_conditions")),
        "sparse.factorize_s": ("sparse.factorize", t.total("sparse.factorize")),
        "sparse.factorize_calls": ("sparse.factorize", len(t.spans["sparse.factorize"])),
        "sparse.factorize_rss_mb": ("sparse.factorize", t.rss_growth("sparse.factorize")),
        "sparse.solve_s": ("sparse.solve", t.total("sparse.solve")),
        "sparse.solve_calls": ("sparse.solve", len(t.spans["sparse.solve"])),
        "sparse.inverse_iteration_s": ("sparse.inverse_iteration",
                                       t.total("sparse.inverse_iteration")),
        "sparse.eig_applies": ("sparse.inverse_iteration", t.counts["sparse.eig_applies"]),
        "analysis.error_norms_s": ("analysis.error_norms", t.total("analysis.error_norms")),
        "analysis.error_norms_rss_mb": ("analysis.error_norms",
                                        t.rss_growth("analysis.error_norms")),
        "analysis.infsup_beta_s": ("analysis.infsup_beta", t.total("analysis.infsup_beta")),
        "semigroup.step_s": ("semigroup.step", t.p50("semigroup.step")),
        "semigroup.step_self_s": ("semigroup.step", t.p50("semigroup.step", "self_time")),
    }
    metrics, absent = {}, []
    for name, (span, value) in sources.items():
        metrics[name] = value
        if not t.spans[span]:
            absent.append(name)
    for name in ("fem.velocity_dofs", "fem.pressure_dofs", "fem.solid_dofs",
                 "fem.iface_dofs", "solver.saddle_n", "solver.saddle_nnz"):
        metrics[name] = t.sizes.get(name, 0)
        if name not in t.sizes:
            absent.append(name)
    for name in ("sparse.lu_nnz", "sparse.pivot_growth_max", "sparse.solve_residual_max"):
        metrics[name] = t.maxima.get(name, 0)
        if name not in t.maxima:
            absent.append(name)
    metrics["trace.overhead_s"] = t.overhead_s
    return metrics, absent

import contextlib
import dataclasses
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as dla

from fsifem import analysis, fem, mesh as meshmod, solver, sparse as sla


def signed_areas(mesh):
    """Signed area of each triangle of `mesh`, positive when oriented
    counterclockwise."""
    p = mesh.vertices[mesh.triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def quadrature_points(space, tris, rule):
    """Physical quadrature points of `rule` on `tris`, (nt, nq, 2)."""
    return np.stack([fem.quadrature_coordinate(space, tris, rule, axis)
                     for axis in (0, 1)], axis=-1)


def perturbed_case(case, which, index, delta):
    """Copy of the manufactured `case` with coefficient `index` of its
    array `which` moved by `delta` (fault injection)."""
    arr = getattr(case, which).copy()
    arr[index] += delta
    return dataclasses.replace(case, **{which: arr})


def zero_state(space):
    """The zero coupled state, pressure included."""
    return solver.FsiState(np.zeros(space.num_velocity_dofs),
                           np.zeros(space.num_solid_dofs),
                           np.zeros(space.num_solid_dofs),
                           np.zeros(space.num_pressure_dofs))


def zero_data(space):
    """The zero resolvent data."""
    return solver.ResolventData(np.zeros(space.num_velocity_dofs),
                                np.zeros(space.num_solid_dofs),
                                np.zeros(space.num_solid_dofs))


def random_data(space, rng):
    """Resolvent data of standard normal entries from `rng`."""
    return solver.data_from_vectors(
        space,
        rng.standard_normal(space.num_velocity_dofs),
        rng.standard_normal(space.num_solid_dofs),
        rng.standard_normal(space.num_solid_dofs))


# `helper._helper_cpus` stand-ins: no helper thread, or one on any CPU of
# this process (the caller's own too), whatever the machine
def no_helper(jobs):
    return set()


def helper_on_any_cpu(jobs):
    return os.sched_getaffinity(0)


def pressure_schur_complement(space):
    """Dense S = B K^{-1} B^T in the eps-seminorm convention, the oracle of
    `analysis.infsup_beta`: K^{-1} B^T comes from LAPACK's dense Cholesky
    solve, so it shares no ordering, factor or residual gate with the
    sparse path it checks."""
    k = solver.free_velocity_block(space, fem.fluid_operators(space).strain)
    b = solver.free_divergence(space).toarray()
    s = b @ dla.solve(k.toarray(), b.T, assume_a="pos")
    return 0.5 * (s + s.T)


_PEAK_RSS_GROWTH = """
def peak_rss_mb():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024

{setup}
before = peak_rss_mb()
{run}
print(peak_rss_mb() - before)
"""


def peak_rss_growth_mb(setup, run):
    """VmHWM growth, in MB, of a fresh one-BLAS-thread process over the
    code `run`, which follows the code `setup`.  It reads VmHWM, not
    ru_maxrss: a child's ru_maxrss starts from the resident size of the
    process that spawned it.  A `run` that raises fails the caller."""
    src = str(pathlib.Path(fem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    script = _PEAK_RSS_GROWTH.format(setup=setup, run=run)
    return float(subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True).stdout)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread other than the main one running,
    as a leaked error-norm helper would."""
    yield
    left = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    assert not left, f"threads left running: {left}"


@pytest.fixture(scope="session")
def mesh0():
    return meshmod.generate(0)


@pytest.fixture(scope="session")
def mesh1():
    return meshmod.generate(1)


@pytest.fixture(scope="session")
def jittered_mesh1(mesh1):
    """Level-1 mesh with every interior vertex moved independently, so no
    two triangles share a Jacobian."""
    rng = np.random.default_rng(11)
    fixed = np.zeros(mesh1.num_vertices, dtype=bool)
    fixed[mesh1.edges[mesh1.edge_tag != meshmod.INTERIOR].ravel()] = True
    vertices = mesh1.vertices.copy()
    # at most 0.14 h per vertex, below the inradius 0.29 h: orientation kept
    vertices[~fixed] += rng.uniform(-0.1, 0.1, ((~fixed).sum(), 2)) / mesh1.n
    jittered = dataclasses.replace(mesh1, vertices=vertices)
    assert np.all(signed_areas(jittered) > 0)
    return jittered


@pytest.fixture(scope="session")
def space0(mesh0):
    return fem.build_space(mesh0)


@pytest.fixture(scope="session")
def space1(mesh1):
    return fem.build_space(mesh1)


@pytest.fixture(scope="session")
def params():
    return fem.MaterialParams(lame_lambda=1.0, lame_mu=1.0, shift=1.0)


@pytest.fixture(scope="session")
def case():
    return analysis.manufactured_case(1.0)


@pytest.fixture(scope="session")
def solved1(space1, params, case):
    """Level-1 manufactured solve shared across test modules."""
    data = analysis.manufactured_data(space1, case)
    state, report = solver.solve_resolvent(space1, params, data)
    return space1, data, state, report


@pytest.fixture()
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture(scope="session")
def traced_peak():
    """`traced_peak(call)`: the peak bytes tracemalloc sees allocated while
    `call()` runs, numpy buffers included.  The result of the call is not
    kept past the call."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def factorize_calls():
    """`with factorize_calls() as calls:` records every `sparse.factorize`
    call made inside the block, in call order, as (shape of the matrix,
    whether it came with coordinates, the precision asked for).  The calls
    still factorize."""
    @contextlib.contextmanager
    def record():
        calls = []
        real = sla.factorize

        def recording(a, xy, precision="double"):
            calls.append((a.shape, xy is not None, precision))
            return real(a, xy, precision)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sla, "factorize", recording)
            yield calls
    return record


@pytest.fixture(scope="session")
def assembled_forms():
    """`with assembled_forms() as forms:` records the form name of every
    `fem.assemble` call made inside the block, in call order.  The calls
    still assemble."""
    @contextlib.contextmanager
    def record():
        forms = []
        real = fem.assemble

        def recording(space, form, params=None):
            forms.append(form)
            return real(space, form, params)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "assemble", recording)
            yield forms
    return record


class PerturbedLU:
    """A SuperLU factor whose `call`-th solve is off by 1e-6 relative."""

    def __init__(self, lu, call):
        self._lu, self._call, self.calls = lu, call, 0

    def solve(self, b):
        self.calls += 1
        x = self._lu.solve(b)
        return x * (1.0 + 1e-6) if self.calls == self._call else x

    def __getattr__(self, name):
        return getattr(self._lu, name)


def plant_step_fault(monkeypatch, step):
    """Make every factor built from now on solve step `step` of a stepper
    wrongly: its first solve is the operator's flux solve at build time.
    Returns the list of the planted factors."""
    planted = []
    real = sla._splu

    def splu(csc):
        planted.append(PerturbedLU(real(csc), step + 1))
        return planted[-1]

    monkeypatch.setattr(sla, "_splu", splu)
    return planted

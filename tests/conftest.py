import contextlib
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from fsifem import analysis, fem, mesh as meshmod, solver, sparse as sla


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
    assert np.all(meshmod.signed_areas(jittered) > 0)
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

import pytest

from reebtwist import cli, lincr, plane, profiles
from reebtwist.config import RunConfig


@pytest.fixture(scope="session")
def default_pair():
    """(twist, binding) profiles of the default config."""
    model = cli.Model(RunConfig())
    return model.tp, model.bp


@pytest.fixture(scope="session")
def tp(default_pair):
    return default_pair[0]


@pytest.fixture(scope="session")
def bp(default_pair):
    return default_pair[1]


@pytest.fixture(scope="session")
def matched(tp):
    return profiles.matched_binding_profile(tp)


@pytest.fixture(scope="session")
def plane_sol(bp):
    return plane.solve_plane(bp, r_at_1=bp.core_end / 2.0)


@pytest.fixture(scope="session")
def we(bp, plane_sol):
    return lincr.assemble_W_equation(bp, plane_sol)


@pytest.fixture(scope="session")
def kernel_report(we):
    return lincr.kernel_dimension(we, k_max=5, n=2)


@pytest.fixture(scope="session")
def all_run(tmp_path_factory):
    """One default `reebtwist all` through cli.main: (--out dir, exit status)."""
    out = tmp_path_factory.mktemp("allrun")
    status = cli.main(["all", "--quiet", "--out", str(out)])
    return out, status

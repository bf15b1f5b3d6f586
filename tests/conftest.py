import pytest

from reebtwist import cli, lincr, plane, profiles
from reebtwist.config import RunConfig

# the two configs the tests run beside the default, each defined here
# once: a stiff k = -2 lincr run, and a collar-shaped binding profile
MODES_CONFIG = ("[twist]\nk = -2\nshape = cos\n[run]\nn = 3\n"
                "[lincr]\nk_max = 8\n")
COLLAR_CONFIG = ("[twist]\nk = -3\np_plateau = 0.9\nshape = cos2\n"
                 "[binding]\nshape = collar\nr0 = 1.3256834340201944\n"
                 "r_max = 3.0\n")


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

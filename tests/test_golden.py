"""Golden values: seed lists and σ that must reproduce exactly.

Every value below is written out as a literal at dataset seed 7 (not
imported, so it cannot drift with its source). The small100 T2 row
(b=8, T=3), OPT at b=4 (the benchmark's short OPT cell) and the
amazon_lite flagship seed group (Dysim b=60, T=10) are copied from the
benchmark's golden values, which are those behind the committed
``table_results.md``. OPT at b=4, T=5, the first cell of table T1 (σ
printed there as 3.98), is the harness ``Runner``'s cell before the
engine learned to run many seed groups per call. σ is the local
engine's at trial salt 0 and is compared with ``==``: a change that
moves a float reduction order or a CELF tie-break fails here, not only
in a paper table.
"""
import pytest

from repro.baselines.bundlegrd import bundlegrd
from repro.baselines.hag import hag
from repro.baselines.opt import opt_bruteforce
from repro.baselines.ps import ps
from repro.core.dysim import dysim
from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate

MAX_PAIRS = 100  # the harness Runner's default candidate pool
M_EVAL = 16  # the harness Runner's σ samples

# method -> (seed list in the planner's order, σ at M=16), small100 b=8 T=3.
T2_ROW = {
    "dysim": ([(9, 0, 1), (71, 0, 2), (68, 0, 3), (12, 0, 3)], 5.917227236008879),
    "bundlegrd": (
        [(61, 0, 1), (61, 2, 1), (61, 5, 1), (61, 4, 1)], 3.9406718791185225,
    ),
    "hag": (
        [(61, 0, 1), (61, 2, 1), (39, 5, 1), (74, 0, 3), (28, 0, 1)], 6.5912778481394,
    ),
    "ps": ([(74, 0, 2), (80, 0, 1), (9, 0, 1), (16, 0, 2)], 5.60606023315159),
}
OPT_B4 = ([(80, 0, 2), (46, 0, 3)], 3.7692693698992015)
OPT_B4_T5 = ([(80, 0, 4), (46, 0, 3)], 3.9818905772610544)

FLAGSHIP_SEEDS = [
    (299, 9, 1), (1740, 0, 1), (299, 0, 2), (919, 0, 2), (199, 0, 3),
    (201, 0, 3), (733, 0, 4), (1228, 0, 5), (258, 0, 5), (744, 0, 5),
    (186, 0, 5), (1070, 0, 6), (1740, 9, 7), (201, 9, 7), (258, 14, 8),
    (733, 23, 8), (745, 23, 8),
]
FLAGSHIP_SIGMA_M2 = 254.36969022233473


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100", seed=7).model


def _plan(method, model, b, T):
    if method == "dysim":
        return dysim(model, b, T, max_pairs=MAX_PAIRS).seeds
    if method == "hag":
        return hag(model, b, T, max_pairs=MAX_PAIRS)
    if method == "bundlegrd":
        return bundlegrd(model, b, T)
    return ps(model, b, T)


@pytest.mark.parametrize("method", sorted(T2_ROW))
def test_t2_row(small, method):
    seeds = [tuple(int(v) for v in s) for s in _plan(method, small, 8, 3)]
    want_seeds, want_sigma = T2_ROW[method]
    assert seeds == want_seeds
    assert simulate(small, seeds, 3, M_EVAL).sigma == want_sigma


def test_opt_b4(small):
    seeds = [tuple(int(v) for v in s) for s in opt_bruteforce(small, 4, 3)]
    assert seeds == OPT_B4[0]
    assert simulate(small, seeds, 3, M_EVAL).sigma == OPT_B4[1]


def test_opt_b4_t5(small):
    seeds = [tuple(int(v) for v in s) for s in opt_bruteforce(small, 4, 5)]
    assert seeds == OPT_B4_T5[0]
    sigma = simulate(small, seeds, 5, M_EVAL).sigma
    assert sigma == OPT_B4_T5[1]
    assert round(sigma, 2) == 3.98  # table_results.md, T1, b=4


def test_flagship_seed_group_sigma():
    model = make_dataset("amazon_lite", seed=7).model
    assert simulate(model, FLAGSHIP_SEEDS, 10, 2).sigma == FLAGSHIP_SIGMA_M2

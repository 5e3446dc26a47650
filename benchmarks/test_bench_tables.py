"""One reduced cell-sweep per table T1–T9 (DESIGN.md §4).

The full-size sweeps run with ``jobs/run_all_tables.py [--table TN]``;
their output is in EXPERIMENTS.md.
"""
import pytest

from repro.experiments import harness as H

SWEEPS = {
    "t1_opt_budget": lambda r: H.table_t1_opt_budget(r, budgets=(6,), T=2),
    "t2_opt_T": lambda r: H.table_t2_opt_T(r, Ts=(2,), b=6),
    "t3_large_budget": lambda r: H.table_t3_large_budget(
        r, datasets=("yelp_lite",), budgets=(40,), T=5
    ),
    "t4_large_T": lambda r: H.table_t4_large_T(r, datasets=("yelp_lite",), Ts=(5,), b=40),
    "t5_time_budget": lambda r: H.table_t5_time_budget(r, budgets=(40,), T=5),
    "t6_time_T": lambda r: H.table_t6_time_T(r, Ts=(5,), b=40),
    "t7_scalability": lambda r: H.table_t7_scalability(
        r, datasets=("yelp_lite", "gowalla_lite"), b=40, T=5
    ),
    "t8_metagraphs": lambda r: H.table_t8_metagraphs(r, sizes=((1, 1), (3, 3)), b=40, T=5),
    "t9_theta": lambda r: H.table_t9_theta(r, thetas=(1, 4), b=40, T=5),
}


@pytest.mark.parametrize("table", sorted(SWEEPS))
def test_bench_table(benchmark, runner, table):
    rows = benchmark.pedantic(lambda: SWEEPS[table](runner), rounds=1, iterations=1)
    assert rows

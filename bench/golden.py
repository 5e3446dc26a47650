"""Golden outputs of every benchmark cell at dataset seed 7.

Seed lists are in the planner's own order; σ values are local-engine
values at trial salt 0 and must reproduce bit for bit. Planning and
every timed σ do not depend on the workload seed (see ``workloads.py``),
so both are checked on every run.

The flagship cell and the T2 row (b=8, T=3) are the values that the
committed ``table_results.md`` and ROADMAP pin. The other cells are the
benchmark's short timed cells; their values were taken from the program
as of the commit that added them, and a change that moves them changes
the program's output.
"""

FLAGSHIP = "amazon_lite/dysim/b=60/T=10"

# cell -> seed list [(user, item, t)]
SEEDS = {
    # ROADMAP flagship cell: amazon_lite, Dysim, b=60, T=10.
    FLAGSHIP: [
        (299, 9, 1), (1740, 0, 1), (299, 0, 2), (919, 0, 2), (199, 0, 3),
        (201, 0, 3), (733, 0, 4), (1228, 0, 5), (258, 0, 5), (744, 0, 5),
        (186, 0, 5), (1070, 0, 6), (1740, 9, 7), (201, 9, 7), (258, 14, 8),
        (733, 23, 8), (745, 23, 8),
    ],
    # Short amazon_lite Dysim cell (candidate pool of 20 pairs).
    "amazon_lite/dysim/b=20/T=5/pairs=20": [
        (299, 0, 1), (199, 0, 1), (1740, 0, 2), (299, 9, 3), (733, 23, 4),
    ],
    # The T2 row T=3, b=8 on small100.
    "small100/opt/b=8/T=3": [(74, 0, 1), (9, 0, 2), (12, 0, 3), (71, 0, 3), (46, 0, 3)],
    "small100/dysim/b=8/T=3": [(9, 0, 1), (71, 0, 2), (68, 0, 3), (12, 0, 3)],
    "small100/bundlegrd/b=8/T=3": [(61, 0, 1), (61, 2, 1), (61, 5, 1), (61, 4, 1)],
    "small100/hag/b=8/T=3": [(61, 0, 1), (61, 2, 1), (39, 5, 1), (74, 0, 3), (28, 0, 1)],
    "small100/ps/b=8/T=3": [(74, 0, 2), (80, 0, 1), (9, 0, 1), (16, 0, 2)],
    # Short OPT cell: the T2 enumeration at b=4.
    "small100/opt/b=4/T=3": [(80, 0, 2), (46, 0, 3)],
    # spark_small100's input: Dysim b=8, T=5 on small100.
    "small100/dysim/b=8/T=5": [(9, 0, 2), (71, 0, 2), (12, 0, 3), (68, 0, 3)],
}

# (cell, M) -> σ of the cell's seed list at M samples. The Spark engine
# must match the local σ of its cell within 1e-9.
SIGMA = {
    (FLAGSHIP, 16): 596.683551567824,
    (FLAGSHIP, 2): 254.36969022233473,
    ("amazon_lite/dysim/b=20/T=5/pairs=20", 16): 70.66398941089403,
    ("small100/opt/b=8/T=3", 16): 7.845179642464516,
    ("small100/dysim/b=8/T=3", 16): 5.917227236008879,
    ("small100/bundlegrd/b=8/T=3", 16): 3.9406718791185225,
    ("small100/hag/b=8/T=3", 16): 6.5912778481394,
    ("small100/ps/b=8/T=3", 16): 5.60606023315159,
    ("small100/opt/b=4/T=3", 16): 3.7692693698992015,
    ("small100/dysim/b=8/T=5", 4): 5.934743886460944,
}

# Rows of the meta-graph relevance table (kind, meta, x, y, s).
KG_ROWS = {"amazon_lite": 946}

"""Baselines of Sec. VI: BundleGRD [33], HAG [10], PS [20], OPT.

Each one-shot baseline is extended to the IMDPP setting exactly as the
paper extends it: per-(user, item) costs constrain selection against
the budget, and promotion timings are assigned with a CR-Greedy [5]
scheduler. All methods are evaluated on the same dynamic diffusion
engine as Dysim.
"""

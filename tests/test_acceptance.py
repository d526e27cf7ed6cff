"""Acceptance suite: the numbered entries of `mdlab.criteria.REGISTRY`.

`mdlab reproduce` runs the same entries.  Each test here runs one numbered
entry at its own seed and the default sample counts and grids, prints one
`criterion NN:` line (visible with -s), and asserts that every check passes
within the entry's time budget.
"""

import time

from mdlab.cli import RunConfig
from mdlab.criteria import REGISTRY

# The seed of each criterion; 06-08 draw nothing at random.
SEEDS = {1: 101, 2: 202, 3: 303, 4: 11, 5: 13, 9: 909, 10: 1010}

# The checks of a `mdlab reproduce` report, in order.
REPORT_CHECKS = (
    "families", "md_dichotomy", "orbit_closed_forms", "action_group_law",
    "strata_preservation", "leaf_invariants", "p1_audit", "integrability",
    "f1_fibration", "snf_oracle", "sixterm_allZ", "gamma1_k_groups",
    "witness_identities", "index_F2", "index_F3", "integral_residuals",
)


def test_registry_lists_the_report_checks_and_each_criterion_once():
    assert tuple(name for entry in REGISTRY for name in entry.checks) == REPORT_CHECKS
    assert sorted(entry.number for entry in REGISTRY if entry.number) == list(range(1, 11))


def _acceptance_test(entry):
    def test():
        config = RunConfig(seed=SEEDS.get(entry.number, RunConfig.seed))
        t0 = time.perf_counter()
        checks = entry.run(config)
        elapsed = time.perf_counter() - t0
        ok = all(c["status"] == "pass" for c in checks) and (
            entry.budget_s is None or elapsed < entry.budget_s)
        detail = "; ".join(f"{c['name']} {c['metrics']}" for c in checks)
        budget = f" (< {entry.budget_s:.0f} s)" if entry.budget_s else ""
        print(f"criterion {entry.number:02d}: {'PASS' if ok else 'FAIL'} - "
              f"{detail}; {elapsed:.1f}s{budget}")
        assert tuple(c["name"] for c in checks) == entry.checks
        assert ok, checks

    return test


# One test per numbered entry, named test_criterion_NN_<entry name>.
for _entry in REGISTRY:
    if _entry.number is not None:
        globals()[f"test_criterion_{_entry.number:02d}_{_entry.name}"] = _acceptance_test(_entry)

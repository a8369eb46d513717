#!/usr/bin/env python3
"""
Demo 2: propagating indices through an interconnection
======================================================

Coupling terms change each subsystem's safety drift, so a standalone
index is no longer valid once subsystems are wired together.  The fix is
linear: bound the worst-case coupling drift delta, then re-solve one of
two inequality systems,

- R1 shrinks the buffer (keeps the certified region inside the old one),
- R2 grows it (useful when the coupling helps).

Both systems are solved in closed form.  Each also has a closed-form
threshold on delta that tells in advance whether it solves (R1 up to the
boundary of its strict rows).  Propagation tries R1, then R2, and reports
the system that solved.
"""

from importlib import resources

from resil import (
    OracleSettings,
    compute_delta,
    compute_index,
    feasibility_r1,
    load_model,
    propagate_indices,
    verify_network,
)

SETTINGS = OracleSettings(grid_points_per_dim=2001, refinement_rounds=2)


def shown(index):
    """The index as printed, each entry rounded to 6 decimals."""
    return tuple(round(v, 6) for v in index.as_tuple())


def main():
    print("Index propagation through a two-subsystem network")
    print("=" * 50)
    path = resources.files("resil") / "models" / "toy_pair.json"
    model = load_model(str(path))
    net = model.network
    print("model: two copies of x' = u with h = 1 - x;")
    print("S1 feeds S2 through w = 0.1*(x1 - x2)")

    print("\nstandalone indices:")
    indices = {}
    for j, s in enumerate(net.subsystems):
        indices[j] = compute_index(s, model.alpha_z, settings=SETTINGS)
        print(f"  {s.name}: {shown(indices[j])}")

    print("\nworst-case coupling drift into each subsystem:")
    for j, s in enumerate(net.subsystems):
        pairwise = compute_delta(net, j, SETTINGS)
        exact = compute_delta(net, j, SETTINGS, exact=True)
        print(f"  {s.name}: pairwise {pairwise.value:+.4g}, "
              f"exact {exact.value:+.4g}")
        feas = feasibility_r1(indices[j], exact.value, model.alpha_z)
        print(f"      R1 threshold {feas.threshold:+.4g} -> {feas.verdict}")

    print("\npropagated indices (R1, buffer shrinks to absorb the coupling):")
    outcomes = propagate_indices(net, indices, model.alpha_z, settings=SETTINGS)
    updated = {}
    for j, s in enumerate(net.subsystems):
        res = outcomes[j]
        updated[j] = res.index
        print(f"  {s.name}: {shown(res.index)}"
              f"  via {res.system}")
    print("S1 has no incoming coupling, so its index is unchanged;")
    print("S2 pays for the hostile coupling with a shorter offline budget,")
    print("a longer required online dwell, and a smaller drift margin.")

    print("\njoint verification of the updated indices:")
    reports = verify_network(net, updated, model.alpha_z, SETTINGS)
    for j, s in enumerate(net.subsystems):
        rep = reports[j]
        print(f"  {s.name}: offline {rep.margin_offline:+.3g}, "
              f"recovery {rep.margin_recovery:+.3g}, "
              f"invariance {rep.margin_invariance:+.3g} "
              f"-> {'PASS' if rep.passed else 'FAIL'}")


if __name__ == "__main__":
    main()

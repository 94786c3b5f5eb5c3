"""Finite-difference verification of both analytic gradients.

The supervised objective (classification log likelihood over the
projection) and the clustering objective (max-component assignment term
minus the orthonormality penalty) each come with a hand-derived
gradient; this script checks both against central differences on random
instances and prints the worst relative error seen. Clustering instances
that sit near an assignment switch, where that objective is not
differentiable, are skipped and redrawn.

    python3 demos/gradient_verification.py
"""

from opgd.clustering import gradient_check

TRIALS = 30

worst_sup, worst_clu = gradient_check(TRIALS, seed=0)
print(f"supervised gradient, {TRIALS} random instances: "
      f"max rel err {worst_sup:.2e}")
print(f"clustering gradient, instances clear of assignment switches: "
      f"max rel err {worst_clu:.2e}")

# the command-line entry point runs the same suites: `opgd gradcheck`

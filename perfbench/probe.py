"""Set-up probe: a fresh process made ready to serve the workloads.

Imports clawlab (backend selection included), resolves every pattern token
the workloads use and makes a first call into each kernel, then prints
``ready <backend>``.  run.py times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import clawlab  # noqa: E402,F401
from clawlab import kernels  # noqa: E402
from clawlab.patterns import pattern_graph  # noqa: E402

TOKENS = ("K1_3", "P4", "P5", "Z1", "Z2", "C4", "B", "K2", "P3", "C5", "2K2", "K3")

if __name__ == "__main__":
    for token in TOKENS:
        pattern_graph(token)
    c5 = pattern_graph("C5")
    claw = pattern_graph("K1_3")
    kernels.max_clique(c5.n, c5.adj)
    kernels.color_with(c5.n, c5.adj, 3)
    kernels.find_induced_embedding(c5.n, c5.adj, claw.n, claw.adj)
    kernels.has_induced(c5.n, c5.adj, claw.n, claw.adj)
    kernels.find_induced_cycle(c5.n, c5.adj, 5)
    kernels.canon_form(c5.n, c5.adj)
    print("ready", kernels.BACKEND, flush=True)

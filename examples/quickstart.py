#!/usr/bin/env python
"""Quickstart: detect positive selection on one branch of one gene.

The complete paper workflow in ~40 lines of public API:

1. simulate a gene under branch-site model A with positive selection on
   a chosen foreground branch (stand-in for a real alignment — swap in
   ``repro.read_alignment``/``repro.parse_newick`` for your own data);
2. fit the null (H0: ω2 = 1) and alternative (H1) hypotheses with the
   SlimCodeML engine;
3. run the likelihood ratio test;
4. identify the selected codon sites with Bayes empirical Bayes.

Run:  python examples/quickstart.py
"""

from repro import (
    BranchSiteModelA,
    beb_site_probabilities,
    fit_branch_site_test,
    make_engine,
    parse_newick,
    simulate_alignment,
)

# -- 1. Data: a 5-species gene, foreground = the (A,B) ancestor branch --
tree = parse_newick("((A:0.25,B:0.25):0.30 #1,(C:0.25,D:0.25):0.10,E:0.35);")
truth = {"kappa": 2.0, "omega0": 0.05, "omega2": 9.0, "p0": 0.55, "p1": 0.2}
sim = simulate_alignment(tree, BranchSiteModelA(), truth, n_codons=300, seed=42)
print(f"simulated {sim.alignment.n_taxa} species x {sim.alignment.n_codons} codons; "
      f"{int((sim.site_classes >= 2).sum())} sites truly under positive selection\n")

# -- 2-3. Fit H0 + H1 and test -----------------------------------------
engine = make_engine()  # default "slim-v2"; or "codeml" | "slim"
test = fit_branch_site_test(
    lambda model: engine.bind(tree, sim.alignment, model, incremental=True),
    seed=1,
    max_iterations=50,
)
print(test.summary())

verdict = "POSITIVE SELECTION DETECTED" if test.lrt.significant() else "no significant signal"
print(f"\n=> {verdict} on the foreground branch "
      f"(p = {test.lrt.pvalue_chi2:.2e}, conservative chi2_1)\n")

# -- 4. Which codons? ---------------------------------------------------
bound = engine.bind(tree, sim.alignment, BranchSiteModelA())
sites = beb_site_probabilities(bound, test.h1.values, test.h1.branch_lengths)
selected = sites.selected_sites(threshold=0.95)
print(f"BEB: {selected.size} codon sites with P(selection) > 0.95: {selected.tolist()[:20]}")
truth_sites = set((sim.site_classes >= 2).nonzero()[0] + 1)
hits = sum(1 for s in selected if s in truth_sites)
print(f"    of which {hits} are true positives (ground truth known because we simulated)")

"""Seeded workload inputs: the Table II stand-in datasets, re-presented.

The datasets themselves are the repository's fixed, seed-deterministic
stand-ins (``repro.datasets.make_dataset``, as ``slimcodeml datasets``
writes them).  The workload seed changes how they
are *presented* to the CLI: the row order of the PHYLIP file and the
taxon labels in both the alignment and the tree.  A branch-site
likelihood is invariant under both, so every seed poses the same
mathematical problem with a different input file.  That keeps the
reference optimum of dataset i valid for every seed and keeps the work
per run comparable across seeds, while a program that silently depended
on taxon order or names would show up as a failed answer check.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

# A PHYLIP name must contain a character outside the nucleotide and
# ambiguity alphabet, or the parser reads it as residues: "Z" and the
# digits qualify.
_LABEL = "Z{:06d}"
_LEAF = re.compile(r"(?<=[(,])([^(),:;\s]+)(?=:)")


def relabel_newick(newick: str, mapping: Dict[str, str]) -> str:
    """Rename the leaves of a Newick string; every leaf must be mapped."""
    seen = set()

    def swap(match: "re.Match[str]") -> str:
        seen.add(match.group(1))
        return mapping[match.group(1)]

    out = _LEAF.sub(swap, newick)
    if seen != set(mapping):
        raise ValueError(f"tree leaves {sorted(seen)} != alignment taxa {sorted(mapping)}")
    return out


def make_base(dataset: str) -> Tuple[List[str], List[str], str]:
    """(names, sequences, Newick) of a Table II stand-in, as ``slimcodeml datasets`` has it."""
    from repro.datasets import make_dataset
    from repro.trees.newick import write_newick

    ds = make_dataset(dataset)
    return list(ds.alignment.names), list(ds.alignment.to_sequences()), write_newick(ds.tree)


def present(names: Sequence[str], seqs: Sequence[str], newick: str, seed: int,
            out_prefix: Path) -> List[str]:
    """Write ``out_prefix.phy``/``.nwk``: rows shuffled, taxa relabelled.

    Returns the new taxon labels in alignment-row order.
    """
    rng = random.Random(seed)
    numbers = rng.sample(range(10**6), len(names))
    mapping = {old: _LABEL.format(k) for old, k in zip(names, numbers)}
    order = list(range(len(names)))
    rng.shuffle(order)
    rows = [f" {len(names)} {len(seqs[0])}"]
    rows += [f"{mapping[names[i]]:<10s}{seqs[i]}" for i in order]
    out_prefix.with_suffix(".phy").write_text("\n".join(rows) + "\n", encoding="utf-8")
    out_prefix.with_suffix(".nwk").write_text(
        relabel_newick(newick.strip(), mapping) + "\n", encoding="utf-8"
    )
    return [mapping[names[i]] for i in order]

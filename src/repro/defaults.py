"""The one set of shipped defaults for ``run``, ``scan`` and the library.

Every entry point that picks an evaluation path without being told —
``slimcodeml run``, ``slimcodeml scan``, the control-file ``engine``
key (:class:`repro.io.ctl.ControlFile`) and the library calls
:func:`~repro.parallel.batch.analyze_genes`,
:func:`~repro.parallel.batch.scan_branches` and
:func:`~repro.parallel.batch.map_survey_candidates` — reads it from
here, so the path a user gets is the same whichever door they use.

* ``ENGINE``: ``slim-v2`` — symmetric branch operators (Eq. 12–13)
  with bundled BLAS-3 CLV propagation (§III-B).  It evaluates through
  the level-order (batched) driver by default
  (:attr:`~repro.core.engine.LikelihoodEngine.default_batched`).
* ``INCREMENTAL``: dirty-path CLV caching and cross-class subtree
  sharing, bit-identical to full re-pruning.

``--engine codeml|slim`` and ``--no-incremental`` stay available for
the paper's tables and the ablations.  The accuracy bar this default
has to meet is stated in EXPERIMENTS.md ("Shipped defaults").

This module imports nothing, so reading a default never pulls in the
numerical stack.
"""

__all__ = ["ENGINE", "INCREMENTAL"]

#: Likelihood engine used when none is named.
ENGINE = "slim-v2"

#: Whether bindings keep incremental CLV state between evaluations.
INCREMENTAL = True

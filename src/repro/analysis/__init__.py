"""Project-specific static analysis and runtime contracts.

Two halves, one goal — keeping the reproduction *trustworthy*:

* :mod:`repro.analysis.lint` — an AST linter whose rules each look at
  one file and encode this repo's determinism, layering and
  coordinate-frame hygiene (run it with ``python -m repro check`` or
  ``make lint``); properties that span modules are checked by tests
  that run the program;
* :mod:`repro.analysis.contracts` — optional runtime invariant checks
  on the pipeline's geometric claims (cuts lie in whitespace, layout
  trees nest, Pareto fronts are non-dominated), enabled with
  ``REPRO_CONTRACTS=1`` and free when off.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and how to add
a rule.

Nothing is re-exported here: the pipeline imports
:mod:`repro.analysis.contracts` on every run, and importing this package
must not load the linter with it.
"""

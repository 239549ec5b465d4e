"""Cost ledger: the repo's benchmark, measured from outside ``src/``.

``perf/run.py`` is the single entry point; this package holds its parts:

* :mod:`ledger.tracing`   -- in-memory spans, counts and self-time arithmetic;
* :mod:`ledger.workloads` -- the six workloads, their inputs and output checks;
* :mod:`ledger.recompose` -- ``run_experiment`` / ``run_multiflow`` / one
  campaign point rebuilt from public calls so spans can sit between layers;
* :mod:`ledger.probes`    -- isolated per-layer micro-measurements;
* :mod:`ledger.profiling` -- one ``cProfile`` pass bucketed by ``repro`` package;
* :mod:`ledger.measure`   -- rounds, resource usage, set-up cost, run header;
* :mod:`ledger.compare`   -- bound / unresolved verdicts between two runs.

Nothing under ``src/`` knows this package exists.
"""

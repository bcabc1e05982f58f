"""Parallel sharded experiment runner.

Shards seed sweeps, parameter grids and the Figure 2 population scan
across worker processes, merges shard results deterministically (parallel
runs are bit-for-bit identical to serial ones), and memoizes completed
shards in an on-disk JSON cache so repeated sweeps skip work already done.

* :mod:`repro.runner.pool` — :func:`run_tasks`, the ordered-merge process
  pool;
* :mod:`repro.runner.cache` — :class:`ResultCache`, keyed by experiment
  name + canonical params + package version;
* :mod:`repro.runner.shards` — the module-level task functions workers
  execute (one chunk of the adoption scan, one seed of a sensitivity
  sweep, one grid point of a what-if sweep, one scorecard section).
"""

"""CONC101 fixture: the worker entry that makes the write reachable."""

from repro.core.cache import warm_cache


def _worker_main(config):
    warm_cache(config)

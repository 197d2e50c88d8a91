"""Shared fixtures that count calls: numpy functions inside the package
modules, and package functions in every namespace that holds them."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import coarraylab
from coarraylab import cli, coarray, estimation, geometry, signal, verify

NAMESPACES = (coarraylab, cli, coarray, estimation, geometry, signal, verify)


class CountingNumpy:
    """Stand-in for numpy inside a module: counts np.unique, np.add.at and
    np.linspace and passes everything else through."""

    def __init__(self, counts: Counter):
        self.counts = counts

    def unique(self, *args, **kwargs):
        self.counts["np.unique"] += 1
        return np.unique(*args, **kwargs)

    def linspace(self, *args, **kwargs):
        self.counts["np.linspace"] += 1
        return np.linspace(*args, **kwargs)

    @property
    def add(self):
        counts = self.counts

        class CountingAdd:
            __call__ = staticmethod(np.add)

            @staticmethod
            def at(*args, **kwargs):
                counts["np.add.at"] += 1
                return np.add.at(*args, **kwargs)

        return CountingAdd()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def numpy_calls(monkeypatch) -> Counter:
    """Counts of the numpy calls CountingNumpy tracks, made inside coarray,
    signal and estimation."""
    counts = Counter()
    for module in (coarray, signal, estimation):
        monkeypatch.setattr(module, "np", CountingNumpy(counts))
    return counts


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(["module.function", ...])`` wraps each named function in
    every package namespace that holds it and returns the live counts."""
    counts = Counter()

    def install(names):
        for name in names:
            module, attr = name.split(".")
            original = getattr(getattr(coarraylab, module), attr)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for namespace in NAMESPACES:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, key, counting)
        return counts

    return install


@pytest.fixture
def bounded_bitmaps(monkeypatch):
    """Fail instead of allocating a co-array bitmap wider than MAX_SPAN."""
    bitmap = coarray._bitmap

    def bounded(size, slots):
        assert size <= coarray.MAX_SPAN, f"bitmap of {size} slots allocated"
        return bitmap(size, slots)

    monkeypatch.setattr(coarray, "_bitmap", bounded)

"""Shared fixtures: benchmark systems and cached bound computations."""

import pytest

from delaymargin.lmi import HierarchyParams
from delaymargin.search import max_delay, min_delay, stability_interval
from delaymargin.systems import bundled_system


@pytest.fixture(scope="session")
def systems():
    return {name: bundled_system(name)[0] for name in ("example1", "example2", "example3")}


class BoundCache:
    """Computes each (system, M, m) bound once per session and keeps the
    full probe reports for certificate auditing."""

    def __init__(self, systems):
        self.systems = systems
        self.upper = {}
        self.upper_reports = {}
        self.lower = {}
        self.intervals = {}
        self.reports = []

    def max_delay(self, name, big_m, m, tol=1e-5):
        key = (name, big_m, m, tol)
        if key not in self.upper:
            value, report = max_delay(
                self.systems[name], HierarchyParams(big_m, m), tol=tol
            )
            self.upper[key] = value
            self.upper_reports[key] = report
            self.reports.append(report)
        return self.upper[key]

    def upper_report(self, name, big_m, m, tol=1e-5):
        """The probe report of ``max_delay``'s bound."""
        self.max_delay(name, big_m, m, tol)
        return self.upper_reports[(name, big_m, m, tol)]

    def min_delay(self, name, big_m, m, tol=1e-5):
        key = (name, big_m, m, tol)
        if key not in self.lower:
            value, report = min_delay(
                self.systems[name], HierarchyParams(big_m, m), tol=tol
            )
            self.lower[key] = value
            self.reports.append(report)
        return self.lower[key]

    def interval(self, name, big_m, m, tol=1e-5):
        key = (name, big_m, m, tol)
        if key not in self.intervals:
            report = stability_interval(
                self.systems[name], HierarchyParams(big_m, m), tol=tol
            )
            self.intervals[key] = report
            self.reports.append(report)
        return self.intervals[key]


@pytest.fixture(scope="session")
def bounds(systems):
    return BoundCache(systems)

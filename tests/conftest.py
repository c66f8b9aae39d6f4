"""Shared fixtures: the quadratic family t -> C[x]/(x^2 - t) on a circle
nerve around t = 0, and small helper nerves."""

import importlib.util
import os

import numpy as np
import pytest

from branekit.family import Chart, Nerve, PotentialFamily, from_potential
from branekit.poly import Polynomial

ANTIDIAG = [[0.0, 1.0], [1.0, 0.0]]


def quadratic_potential():
    """Phi = 1/2 t0^2 t1 + t1^4 / 24: the tangent algebra at (t0, t1) is
    C[x]/(x^2 - t1) with unit direction 0."""
    phi = Polynomial(2, {(2, 1): 0.5, (0, 4): 1.0 / 24.0})
    return PotentialFamily(n=2, potential=phi, flat_metric=ANTIDIAG, unit_direction=0)


def circle_nerve(num_charts=8, samples_per_chart=4, radius=1.0):
    """Arcs covering the unit circle in the t1 plane; consecutive charts
    share exactly one sample point (float-exact by construction)."""
    charts = []
    for k in range(num_charts):
        samples = []
        for j in range(samples_per_chart + 1):
            frac = (k + j / samples_per_chart) % num_charts
            theta = 2.0 * np.pi * frac / num_charts
            samples.append((0.0, radius * np.exp(1j * theta)))
        charts.append(Chart(id=f"c{k}", samples=tuple(samples)))
    edges = [(f"c{k}", f"c{(k + 1) % num_charts}") for k in range(num_charts)]
    return Nerve(charts, edges)


def circle_loop(num_charts=8):
    return [f"c{k}" for k in range(num_charts)] + ["c0"]


def disk_nerve(t1=0.7, steps=4):
    """Three petals around a common center point (t1 != 0 keeps every sample
    semisimple); all pairwise edges and the full triangle share the center.
    Each chart samples a straight path from its outer point to the center so
    idempotent tracking stays well inside the safety margin."""
    center = complex(t1)
    outer = [center + 0.3, center + 0.3j, center - 0.25]
    charts = []
    for k, z in enumerate(outer):
        path = [z + (center - z) * (j / steps) for j in range(steps)]
        samples = tuple((0.0, w) for w in path) + ((0.0, center),)
        charts.append(Chart(f"p{k}", samples))
    edges = [("p0", "p1"), ("p1", "p2"), ("p0", "p2")]
    triangles = [("p0", "p1", "p2")]
    return Nerve(charts, edges, triangles=triangles)


@pytest.fixture
def circle_family():
    nerve = circle_nerve()
    return from_potential(quadratic_potential(), nerve), nerve


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_workloads():
    """The benchmark's input generator, `perfbench/workloads.py`, as a module."""
    return _perfbench_module("workloads")


def perfbench_truth():
    """The benchmark's judge of a job's report, `perfbench/truth.py`, as a module."""
    return _perfbench_module("truth")

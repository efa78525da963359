"""Reproduction of "Identifying and Aggregating Homogeneous IPv4 /24
Blocks with Hobbit" (Lee and Spring, IMC 2016).

Packages:

* :mod:`repro.net` — IPv4 address/prefix primitives.
* :mod:`repro.netsim` — the synthetic Internet the paper's probing runs
  against (routing, load balancing, hosts, ICMP, registries).
* :mod:`repro.probing` — ZMap-style scanning, ping, the MDA stopping
  rule and route comparison.
* :mod:`repro.core` — Hobbit itself: the hierarchy test, the confidence
  table, termination rules and the measurement campaign, on the compiled
  engine that also runs the path dataset's Paris-traceroute MDA.
* :mod:`repro.aggregation` — identical-set aggregation and MCL-based
  similarity clustering with reprobe validation.
* :mod:`repro.analysis` — figure/table analyses and applications.
* :mod:`repro.experiments` — one runner per paper artifact.
"""

__version__ = "1.0.0"

from . import aggregation, analysis, core, net, netsim, probing, util

__all__ = [
    "aggregation",
    "analysis",
    "core",
    "net",
    "netsim",
    "probing",
    "util",
    "__version__",
]

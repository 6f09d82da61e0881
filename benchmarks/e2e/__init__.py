"""End-to-end benchmark of the reproduction: what a user of it pays.

Four workloads (figure training, figure sweep, fault-injected vec eval,
overload serving), each run in its own fresh process.  See ``README.md``.
"""

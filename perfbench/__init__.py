"""The repository's benchmark: three workloads timed from outside the program.

``run.py`` is the entry point; ``workloads.json`` declares each
workload's reason and full parameter set and the layer → metric →
end-to-end metric map; ``tracing.py`` is the traced run's layer
attribution; ``compare.py`` compares two recorded runs on one host.
"""

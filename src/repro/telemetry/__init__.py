"""repro.telemetry: metrics registry, packet-lifecycle spans and
exporters for the simulated PARD machine.

See DESIGN.md ("Observability") for the instrument naming scheme,
sampling rules, and the overhead budget this layer is held to.
"""

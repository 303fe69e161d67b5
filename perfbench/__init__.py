"""The lpreg benchmark: workloads, certificate check and tracing."""

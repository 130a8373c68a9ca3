"""The repository's benchmark: workloads, timing proxy, tracing and the
comparison tool behind ``BENCHMARK.json`` (see ``bench/README.md``)."""

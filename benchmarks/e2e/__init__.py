"""The committed end-to-end benchmark (``BENCHMARK.json``); see README.md."""

"""The repo's benchmark: ``repro check`` time-to-verdict and ``repro serve``
edit latency, decomposed by module.  See README.md in this directory."""

"""The TPC-W benchmark of the Queryll stack (see ``perfbench/METRICS.md``)."""

"""Benchmark harness for vknots: workloads, tracing and the run command.

Run ``python3 perfbench/run.py --workload {fuzz,report,jones} --seed N
--seconds S --trace {0,1}`` from the repository root.
"""

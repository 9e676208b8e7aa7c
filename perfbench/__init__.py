"""One benchmark for the FANcY reproduction (see README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; the last line
of standard output is a JSON record.
"""

"""Database workload substrate.

The paper evaluates the advisor with PostgreSQL running TPC-H and TPC-C.
This subpackage provides the simulated equivalent: object catalogs with
paper-faithful relative sizes, per-query I/O profiles describing which
objects each TPC-H query scans or probes (and how much), TPC-C
transaction profiles, the four SQL workloads of the paper's Figure 10,
and an execution engine that replays a workload under a given layout on
the storage simulator and reports elapsed time / tpmC.
"""

from repro.db.schema import Database, DatabaseObject
from repro.db.tpch import tpch_database, tpch_query_profile, TPCH_QUERY_NAMES
from repro.db.tpcc import tpcc_database, new_order_profile
from repro.db.workloads import (
    olap_workload,
    oltp_workload,
    OLAP1_21,
    OLAP1_63,
    OLAP8_63,
    OLTP,
)
from repro.db.engine import WorkloadResult, run_olap, run_oltp, run_consolidation

__all__ = [
    "Database",
    "DatabaseObject",
    "tpch_database",
    "tpch_query_profile",
    "TPCH_QUERY_NAMES",
    "tpcc_database",
    "new_order_profile",
    "olap_workload",
    "oltp_workload",
    "OLAP1_21",
    "OLAP1_63",
    "OLAP8_63",
    "OLTP",
    "WorkloadResult",
    "run_olap",
    "run_oltp",
    "run_consolidation",
]

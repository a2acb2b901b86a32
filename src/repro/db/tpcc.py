"""TPC-C catalog and transaction I/O profiles.

The catalog mirrors the paper's scale-factor-90 TPC-C database: 9.1 GB
in 20 objects — 9 tables, 10 indexes, and a transaction log (paper
Figure 9).  The OLTP workload is driven by simulated terminals with no
think or keying time executing New-Order-dominated transactions, as in
the paper; throughput is reported in New-Order transactions per minute
(tpmC).

Object names follow the paper's Figure 16 (STOCK, PK_STOCK, XactionLOG,
I_CUSTOMER, I_ORDERS, PK_CUSTOMER, PK_ORDER_LINE, ...).
"""

import numpy as np

from repro import units
from repro.db.profiles import QueryProfile, phase, rand, seq
from repro.db.schema import Database, DatabaseObject, INDEX, LOG, TABLE

_M = units.MIB

#: Scale-factor-90 object sizes (bytes), standard TPC-C proportions.
_TPCC_OBJECTS = (
    DatabaseObject("STOCK", TABLE, 2900 * _M),
    DatabaseObject("ORDER_LINE", TABLE, 1900 * _M),
    DatabaseObject("CUSTOMER", TABLE, 1550 * _M),
    DatabaseObject("HISTORY", TABLE, 210 * _M),
    DatabaseObject("OORDER", TABLE, 140 * _M),
    DatabaseObject("ITEM", TABLE, 75 * _M),
    DatabaseObject("NEW_ORDER", TABLE, 40 * _M),
    DatabaseObject("DISTRICT", TABLE, 2 * _M),
    DatabaseObject("WAREHOUSE", TABLE, 1 * _M),
    DatabaseObject("PK_ORDER_LINE", INDEX, 450 * _M),
    DatabaseObject("PK_STOCK", INDEX, 280 * _M),
    DatabaseObject("PK_CUSTOMER", INDEX, 120 * _M),
    DatabaseObject("I_CUSTOMER", INDEX, 90 * _M),
    DatabaseObject("PK_OORDER", INDEX, 45 * _M),
    DatabaseObject("I_ORDERS", INDEX, 45 * _M),
    DatabaseObject("PK_NEW_ORDER", INDEX, 8 * _M),
    DatabaseObject("PK_ITEM", INDEX, 4 * _M),
    DatabaseObject("PK_DISTRICT", INDEX, 1 * _M),
    DatabaseObject("PK_WAREHOUSE", INDEX, 1 * _M),
    DatabaseObject("XactionLOG", LOG, 1200 * _M),
)


def tpcc_database(scale=1.0):
    """The TPC-C SF90-shaped catalog, optionally scaled down."""
    db = Database("tpcc", _TPCC_OBJECTS)
    if scale != 1.0:
        db = db.scaled(scale)
    return db


def new_order_profile():
    """I/O profile of one New-Order transaction.

    Per the TPC-C specification a New-Order touches the warehouse,
    district, and customer rows, ~10 order lines each requiring an item
    lookup (ITEM is small and cached — only occasional misses reach
    storage) and a stock read-modify-write, inserts into OORDER,
    NEW_ORDER, and ORDER_LINE, and commits with a sequential log write.
    All page numbers are absolute (per-transaction I/O does not scale
    with table size) and assume a warm buffer pool: hot interior b-tree
    pages and the tiny tables are cached, leaf/heap pages mostly miss.
    """
    return QueryProfile("NewOrder", (
        # Reads: customer lookup, stock reads for ~10 lines, index leaves.
        phase(
            rand("PK_CUSTOMER", pages=1),
            rand("CUSTOMER", pages=1),
            rand("PK_STOCK", pages=2, window=2),
            rand("STOCK", pages=8, window=4),
        ),
        # Writes: stock updates, order-line/order inserts, log commit.
        phase(
            rand("STOCK", pages=6, kind="write", window=4),
            rand("ORDER_LINE", pages=3, kind="write", window=2),
            rand("PK_ORDER_LINE", pages=1, kind="write"),
            rand("OORDER", pages=1, kind="write"),
            rand("NEW_ORDER", pages=1, kind="write"),
            seq("XactionLOG", pages=2, kind="write", window=1),
        ),
    ))


def payment_profile():
    """I/O profile of one Payment transaction (secondary mix member)."""
    return QueryProfile("Payment", (
        phase(
            rand("I_CUSTOMER", pages=1),
            rand("CUSTOMER", pages=1),
        ),
        phase(
            rand("CUSTOMER", pages=1, kind="write"),
            rand("HISTORY", pages=1, kind="write"),
            seq("XactionLOG", pages=1, kind="write", window=1),
        ),
    ))


def order_status_profile():
    """I/O profile of one Order-Status transaction (read only)."""
    return QueryProfile("OrderStatus", (
        phase(
            rand("I_CUSTOMER", pages=1),
            rand("CUSTOMER", pages=1),
            rand("PK_OORDER", pages=1),
            rand("I_ORDERS", pages=1),
        ),
        phase(
            rand("PK_ORDER_LINE", pages=1),
            rand("ORDER_LINE", pages=2, window=2),
        ),
    ))


#: The transaction mix executed by each simulated terminal.  New-Order
#: dominates (it is also the only transaction counted for tpmC, per the
#: TPC-C convention the paper follows).
TRANSACTION_MIX = (
    (new_order_profile(), 0.6),
    (payment_profile(), 0.3),
    (order_status_profile(), 0.1),
)


_MIX_PROFILES = tuple(p for p, _ in TRANSACTION_MIX)
_MIX_WEIGHTS = np.array([w for _, w in TRANSACTION_MIX])
_MIX_P = _MIX_WEIGHTS / _MIX_WEIGHTS.sum()


def sample_transaction(rng):
    """Draw a transaction profile from the mix."""
    return _MIX_PROFILES[int(rng.choice(len(_MIX_PROFILES), p=_MIX_P))]

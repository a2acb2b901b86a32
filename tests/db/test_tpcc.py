"""Tests for the TPC-C catalog and transaction profiles."""

import numpy as np
import pytest

from repro import units
from repro.db.schema import INDEX, LOG, TABLE
from repro.db.tpcc import (
    _MIX_P,
    _MIX_PROFILES,
    TRANSACTION_MIX,
    new_order_profile,
    order_status_profile,
    payment_profile,
    sample_transaction,
    tpcc_database,
)


def test_catalog_matches_paper_figure_9():
    """Paper Figure 9: TPC-C has 9.1 GB in 9 tables, 10 indexes, 1 log."""
    db = tpcc_database()
    assert len(db) == 20
    assert len(db.of_kind(TABLE)) == 9
    assert len(db.of_kind(INDEX)) == 10
    assert len(db.of_kind(LOG)) == 1
    assert db.total_size == pytest.approx(9.1 * units.GIB, rel=0.05)


def test_stock_is_the_largest_table():
    db = tpcc_database()
    tables = [db[name] for name in db.of_kind(TABLE)]
    assert max(tables, key=lambda o: o.size).name == "STOCK"


def test_profiles_reference_only_catalog_objects():
    db = tpcc_database()
    for profile in (new_order_profile(), payment_profile(),
                    order_status_profile()):
        for obj in profile.objects:
            assert obj in db


def test_new_order_commits_to_the_log():
    profile = new_order_profile()
    log_writes = [
        access
        for phase in profile.phases
        for access in phase.accesses
        if access.obj == "XactionLOG"
    ]
    assert log_writes
    assert all(a.kind == "write" and a.mode == "seq" for a in log_writes)


def test_new_order_uses_absolute_page_counts():
    """OLTP I/O must not scale with table size."""
    profile = new_order_profile()
    for phase in profile.phases:
        for access in phase.accesses:
            assert access.pages > 0


def test_mix_weights_sum_to_one():
    assert sum(w for _, w in TRANSACTION_MIX) == pytest.approx(1.0)


def test_new_order_dominates_the_mix():
    weights = {p.name: w for p, w in TRANSACTION_MIX}
    assert weights["NewOrder"] == max(weights.values())


def test_sample_transaction_draws_what_rng_choice_draws():
    """The reference is the draw ``sample_transaction`` used to make."""
    reference, rng = np.random.default_rng(11), np.random.default_rng(11)
    expected = [_MIX_PROFILES[int(reference.choice(len(_MIX_PROFILES),
                                                   p=_MIX_P))]
                for _ in range(10000)]
    assert [sample_transaction(rng) for _ in range(10000)] == expected
    # Both consumed the same random numbers.
    assert rng.random() == reference.random()


def test_sample_transaction_follows_weights():
    rng = np.random.default_rng(0)
    names = [sample_transaction(rng).name for _ in range(500)]
    share = names.count("NewOrder") / len(names)
    assert 0.5 < share < 0.7

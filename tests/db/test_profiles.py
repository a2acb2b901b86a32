"""Tests for query profile types."""

import pytest

from repro.db.profiles import AccessSpec, Phase, QueryProfile, phase, rand, seq


def test_seq_shorthand_defaults():
    access = seq("obj")
    assert access.mode == "seq"
    assert access.fraction == 1.0
    assert access.kind == "read"


def test_rand_requires_some_volume():
    with pytest.raises(ValueError):
        rand("obj")
    assert rand("obj", fraction=0.1).fraction == 0.1
    assert rand("obj", pages=5).pages == 5


def test_seq_with_absolute_pages():
    access = seq("log", pages=2, kind="write")
    assert access.pages == 2
    assert access.kind == "write"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        AccessSpec(obj="o", mode="zigzag", fraction=1.0)


def test_empty_phase_rejected():
    with pytest.raises(ValueError):
        Phase(())


def test_empty_profile_rejected():
    with pytest.raises(ValueError):
        QueryProfile("q", ())


def test_objects_deduplicated_in_order():
    profile = QueryProfile("q", (
        phase(seq("a"), seq("b")),
        phase(seq("a"), seq("c")),
    ))
    assert profile.objects == ["a", "b", "c"]


def test_renamed_rewrites_every_access():
    profile = QueryProfile("q", (
        phase(seq("a"), rand("b", pages=3)),
    ))
    renamed = profile.renamed({"a": "x.a", "b": "x.b"})
    assert renamed.objects == ["x.a", "x.b"]
    # Original untouched.
    assert profile.objects == ["a", "b"]
    # Other attributes survive the rename.
    access = renamed.phases[0].accesses[1]
    assert access.pages == 3
    assert access.mode == "rand"


def test_renamed_memo_returns_a_fresh_build_and_holds_one_entry():
    def build():
        return QueryProfile("q", (
            phase(seq("a", pages=2, kind="write", window=1)),
            phase(rand("b", fraction=0.25), rand("c", pages=3)),
        ))

    profile = build()
    first = {"a": "x.a", "b": "x.b"}
    renamed = profile.renamed(first)
    assert renamed == build().renamed(first)
    # A repeated mapping, even a different dict, gets the same profile.
    assert profile.renamed(dict(first)) is renamed
    assert profile._renamed == (first, renamed)
    # A new mapping replaces the one entry.
    second = {"a": "y.a"}
    assert profile.renamed(second) == build().renamed(second)
    assert profile._renamed[0] == second
    # The memo copied the mapping: mutating it is a new mapping.
    second["c"] = "y.c"
    assert profile.renamed(second).objects == ["y.a", "b", "y.c"]
    assert profile._renamed[0] == second
    # It is not a field: equality, hashing and repr ignore it.
    assert profile == build() and hash(profile) == hash(build())
    assert repr(profile) == repr(build())

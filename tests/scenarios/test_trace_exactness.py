"""Exactness oracle for scenario trace synthesis.

Every matrix cell, drift benchmark and served scenario replays a
synthesized trace, so a change to how the trace is built must not move
one record: each library scenario's trace, at its own seed and at seed
1001, hashes to a pinned digest over every field of every record.  The
digests were taken from the per-record implementation the column-wise
one replaced.
"""

import hashlib

import pytest

from repro.scenarios import compile_scenario, load_scenario

#: (scenario, compile seed) -> (records, sha256 over repr of each record).
DIGESTS = {
    ("analytics-ingest-drift", None): (
        41532, "8fe188acf49bb4dd6ad01ac89df4f7a815012c4f5fb8d82ca457e9588d2c9316"),
    ("analytics-ingest-drift", 1001): (
        42051, "03240629105fc6a3af89170935e40235a2ca1cfa4b4a788263b477a9c2efabfc"),
    ("diurnal-batch-window", None): (
        46902, "314a4e8811d3bca5fed52c03153370a9223f88d245e4ce2ad919b50a2897ff86"),
    ("diurnal-batch-window", 1001): (
        46572, "04ffcafb7149baf34842b43a2e04b870ce087e743c42018e74ba7b7f3a2a5ab2"),
    ("ecommerce-diurnal", None): (
        42880, "17c00e7c99a5872959f5940806b070ed87bc7ac0ffbe47d055537b34b9be852e"),
    ("ecommerce-diurnal", 1001): (
        42627, "a0bf58bc66ccec1160e8dbd5c14deb33c80f928723c20c53ce40422a2b08ac0a"),
    ("fault-storm", None): (
        21638, "f4bc9913ccf5623b5c0105e3284a2058b838e27e7c8c3be13aba05b9a32c0341"),
    ("fault-storm", 1001): (
        21546, "bd541ed8d2781740267cddea2babad4ba4b69e7345d6c07500253182910bc6c4"),
    ("mixed-consolidation", None): (
        41626, "5f2dc2b81bd80ee2a24616b0f09c151b1501722ca02a880b48dcb21f971933c6"),
    ("mixed-consolidation", 1001): (
        41199, "d9dcb489cbd1482f6f8a6d28ab21d7dd1595759eea8e0883941d74fa874ca2cb"),
    ("olap-batch", None): (
        32295, "fc1590dde3f23cc6e18f232db730187af07635465bcf25a1a371b02c8a8d2752"),
    ("olap-batch", 1001): (
        32254, "a0ac6631f7663789a2be2ea610b8f7f622113a2c406d95bde2a2db05587bd67f"),
    ("oltp-scan-drift", None): (
        148465, "96345e6eb14840f84e3665c9cd4a9cd9ebe8a6d159f9da8abebfd1822564e6af"),
    ("oltp-scan-drift", 1001): (
        147420, "8242f64d1241a70e2824866091ff13dab5466fda48408569354498cd08b92c0e"),
    ("oltp-steady", None): (
        15488, "91dfb11ee85a782957e103a80abab8ccfafb85073e03f555dd28377c68a80b68"),
    ("oltp-steady", 1001): (
        15506, "b50f36904bfc4116cdefd4b7e2a661f429c4fda93b3e70fbdaac02fa4ad901b1"),
    ("read-mostly-archive", None): (
        10593, "d09104d38d0f45f8d9e14124ef0b9ca244decacf2d5331cc03dcd5959a44dfbc"),
    ("read-mostly-archive", 1001): (
        10263, "23681010dbe637753c9ca9c6a773d3109d2343f72fd39618cf3c2b6cb2d8e6a1"),
    ("social-flash-crowd", None): (
        48422, "f1e3b0f9888c420d8024db22c9656a0e8c56222c204165788538487ce8463769"),
    ("social-flash-crowd", 1001): (
        47319, "14d669c2fc4253dc8f5c35962299a9400b1a347130482e4838ddd9128397aeae"),
    ("tenant-churn", None): (
        14578, "d4b6ce5c3b7354adc9c69c98a6d85806945e3e9f806a1f767a0b962b4e4bdeff"),
    ("tenant-churn", 1001): (
        14367, "ca4e28ad0f0dd8e707576776ed24e147938593fc08924f77cac1789116a59a29"),
    ("write-burst", None): (
        28475, "733ef873384755be2ffd36b949ed88b3737200ce0a8fb07d2d5aff571def7595"),
    ("write-burst", 1001): (
        28073, "467983c3d0e6cadbd9f0f5a863f52e35ef04443905f945306b4bf1f66f6a7c35"),
}


def _trace_digest(trace):
    # repr tells a float from a numpy scalar and an int from a float, so
    # the digest pins field types as well as values.
    digest = hashlib.sha256()
    for record in trace:
        digest.update(repr(tuple(record)).encode())
    return len(trace), digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(DIGESTS, key=str))
def test_synthesized_trace_matches_pinned_digest(name, seed):
    trace = compile_scenario(load_scenario(name),
                             seed=seed).synthesize_trace()
    assert isinstance(trace, list)
    assert _trace_digest(trace) == DIGESTS[(name, seed)]

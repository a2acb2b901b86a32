"""The regression-oracle check masks wall-clock fields and nothing else."""

from benchmarks.oracle_diff import masked

FIG19 = """\
OLAP8-63          20   4        1.15                0.07       1.23  slsqp     
consolidation     40  10       13.11                0.31      13.42  slsqp     
"""

LAYERS = """\
  "online.ingest": {
    "checks": 19,
    "records": 148465,
    "records_per_s": 704602.4,
    "seconds": 0.2107,
    "windows_rolled": 50
"""

SOLVER_METHODS = """\
slsqp                     3.0715            1.50
anneal                    3.4177           13.06
(SEE reference)           3.4177                
"""


def test_timings_are_masked():
    slower = FIG19.replace("1.15", "9.87").replace("13.11", "113.1")
    assert masked("fig19_opt_time.txt", slower) == \
        masked("fig19_opt_time.txt", FIG19)
    slower = SOLVER_METHODS.replace("1.50", "2.25")
    assert masked("solver_methods.txt", slower) == \
        masked("solver_methods.txt", SOLVER_METHODS)
    assert masked("online_drift_events.jsonl",
                  '{"decision_latency_s": 0.012, "gain": 0.3}') == \
        masked("online_drift_events.jsonl",
               '{"decision_latency_s": 1.5e-05, "gain": 0.3}')
    assert masked("scenarios.txt", "(36 ok, 0 failed, 23.4 s)") == \
        masked("scenarios.txt", "(36 ok, 0 failed, 11.8 s)")
    assert masked("x.json", '"elapsed_s": 1.359,') == \
        masked("x.json", '"elapsed_s": 2,')
    assert masked("BENCH_layers.json", LAYERS) == masked(
        "BENCH_layers.json", LAYERS.replace("0.2107", "0.9")
        .replace("704602.4", "1.5e5"))


def test_layer_counts_are_kept():
    for before, after in (('"checks": 19', '"checks": 20'),
                          ('"records": 148465', '"records": 148466'),
                          ('"windows_rolled": 50', '"windows_rolled": 5')):
        assert masked("BENCH_layers.json", LAYERS.replace(before, after)) \
            != masked("BENCH_layers.json", LAYERS)
    # The time fields are masked in that file only.
    assert masked("other.json", LAYERS.replace("0.2107", "0.9")) != \
        masked("other.json", LAYERS)


def test_quality_numbers_are_kept():
    assert masked("fig19_opt_time.txt", FIG19.replace("slsqp", "anneal")) != \
        masked("fig19_opt_time.txt", FIG19)
    for before, after in (("3.0715", "3.0716"),
                          ("3.4177                ", "3.4178                ")):
        assert masked("solver_methods.txt",
                      SOLVER_METHODS.replace(before, after)) != \
            masked("solver_methods.txt", SOLVER_METHODS)
    assert masked("scenarios.txt", "(35 ok, 1 failed, 23.4 s)") != \
        masked("scenarios.txt", "(36 ok, 0 failed, 23.4 s)")
    assert masked("online_drift_events.jsonl",
                  '{"decision_latency_s": 0.012, "gain": 0.3}') != \
        masked("online_drift_events.jsonl",
               '{"decision_latency_s": 0.012, "gain": 0.4}')

"""Tests for the YAML loader.

The ``test_mini_parser_*`` cases were written for the safe-subset parser
that once backed the loader when PyYAML was missing; they keep their
names and now pin the PyYAML loader's answer on the same inputs.
"""

import pytest

from repro.errors import ScenarioError
from repro.scenarios.yamlio import load_yaml_file, parse_yaml

SAMPLE = """
name: sample
duration_s: 12.5
nested:
  flag: true
  nothing: null
  quoted: "a: b"
list:
  - 1
  - two
  - {k: v, n: 3}
compact:
  - {name: read, weight: 60, objects: [a, b], kind: read}
  - name: write
    weight: 40
"""


def test_parse_yaml_basic_types():
    data = parse_yaml(SAMPLE, "<test>")
    assert data["name"] == "sample"
    assert data["duration_s"] == 12.5
    assert data["nested"] == {"flag": True, "nothing": None,
                             "quoted": "a: b"}
    assert data["list"] == [1, "two", {"k": "v", "n": 3}]
    assert data["compact"][0]["objects"] == ["a", "b"]
    assert data["compact"][1] == {"name": "write", "weight": 40}


def test_mini_parser_multiline_flow():
    text = "tasks:\n  - {name: scan, weight: 90,\n     run_count: 64}\n"
    assert parse_yaml(text, "<test>") == {
        "tasks": [{"name": "scan", "weight": 90, "run_count": 64}]
    }


def test_mini_parser_comments_and_blanks():
    text = "# header\na: 1  # trailing\n\nb: '#not a comment'\n"
    assert parse_yaml(text, "<test>") == {"a": 1, "b": "#not a comment"}


def test_mini_parser_rejects_tabs():
    with pytest.raises(ScenarioError, match=r"^<test>:2: .*'\\t'"):
        parse_yaml("a:\n\tb: 1\n", "<test>")


def test_mini_parser_rejects_duplicate_keys():
    with pytest.raises(ScenarioError,
                       match=r"^<test>:2: .*duplicate key 'a'$"):
        parse_yaml("a: 1\na: 2\n", "<test>")
    with pytest.raises(ScenarioError, match=r"^<test>:3: .*'kind'$"):
        parse_yaml("t:\n  kind: ssd\n  kind: raid0\n", "<test>")
    # A second targets: block would otherwise drop the first.
    text = ("targets:\n  - {name: d0, kind: ssd}\nname: x\n"
            "targets:\n  - {name: d1}\n")
    with pytest.raises(ScenarioError,
                       match=r"^<test>:4: .*duplicate key 'targets'$"):
        parse_yaml(text, "<test>")


def test_merge_keys_may_override():
    text = "base: &b {x: 1, y: 2}\nchild:\n  <<: *b\n  x: 5\n"
    assert parse_yaml(text)["child"] == {"x": 5, "y": 2}


def test_mini_parser_rejects_unterminated_flow():
    with pytest.raises(ScenarioError, match=r"^<test>:2: .*'\]'"):
        parse_yaml("a: [1, 2\n", "<test>")


def test_error_carries_file_and_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("a: 1\n\tb: 2\n")
    with pytest.raises(ScenarioError) as exc:
        load_yaml_file(str(path))
    assert str(exc.value).startswith("%s:2: " % path)


def test_load_yaml_file_missing(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_yaml_file(str(tmp_path / "nope.yaml"))


def test_pyyaml_error_is_one_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\nb: }\n")
    with pytest.raises(ScenarioError) as exc:
        load_yaml_file(str(path))
    assert "\n" not in str(exc.value)

"""YAML loading for scenario and matrix files.

PyYAML's safe loader, with one change: a key repeated within one
mapping is an error instead of silently replacing the first, so a second
``targets:`` block cannot drop the first.  Every failure is a one-line
:class:`~repro.errors.ScenarioError` carrying ``file:line``.
"""

import yaml

from repro.errors import ScenarioError

_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects duplicate mapping keys."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != _MERGE_TAG]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, "duplicate key %r" % (key,),
                    key_node.start_mark)
            seen.add(key)
        return mapping


def load_yaml_file(path):
    """Parse one YAML file into plain dict/list/scalar data."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ScenarioError("cannot read %s: %s" % (path, error))
    return parse_yaml(text, label=str(path))


def parse_yaml(text, label="<string>"):
    """Parse YAML text; raises one-line :class:`ScenarioError`."""
    try:
        return yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as error:
        mark = getattr(error, "problem_mark", None)
        where = ("%s:%d" % (label, mark.line + 1)
                 if mark is not None else label)
        problem = getattr(error, "problem", None) or str(error)
        raise ScenarioError(
            "%s: YAML parse error: %s" % (where, " ".join(
                str(problem).split()))
        )

"""The sweep-target resolver shared by the CLI verbs and the daemon:
every bad parameter fails with a ConfigError naming the constraint."""

import pytest

from repro.common.errors import ConfigError
from repro.sweep.targets import app_size_dict, parse_cells, resolve_target


@pytest.mark.parametrize("params,match", [
    ([], "must be a JSON object"),
    ({"target": "fig9"}, "unknown target"),
    ({"target": "fig1", "streams": " , "}, "non-empty list of names"),
    ({"target": "fig1", "streams": [1]}, "non-empty list of names"),
    ({"target": "fig2", "ilp": "huge"}, "unknown ilp"),
    ({"target": "fig2", "panel": "z"}, "unknown fig2 panel"),
    ({"target": "app"}, "needs a 'name'"),
    ({"target": "app", "name": "fft"}, "unknown application"),
    ({"target": "app", "name": "bt", "size": -2}, "positive integer"),
    ({"target": "app", "name": "mm", "size": True}, "positive integer"),
    ({"target": "app", "name": "cg", "size": 8}, "fixed scaled size"),
])
def test_bad_target_params_name_the_constraint(params, match):
    with pytest.raises(ConfigError, match=match):
        resolve_target(params)


def test_app_size_semantics():
    assert app_size_dict("mm", 32) == {"n": 32}
    assert app_size_dict("bt", 6) == {"grid": 6}
    default = resolve_target({"target": "app", "name": "lu"})
    assert default.extra == {"size": app_size_dict("lu", None)}


@pytest.mark.parametrize("specs,match", [
    ([], "non-empty list"),
    ([{"kind": "stream-cpi"}], "'config' object"),
    ([{"kind": "stream-cpi", "config": {}, "core": {}}], "unknown fields"),
    ([{"kind": 7, "config": {}}], "string 'kind'"),
    ([{"kind": "app-run", "config": {}}], "invalid 'app-run'"),
    ([{"kind": "stream-cpi", "config": {}}], "missing field 'stream'"),
    ([{"kind": "stream-cpi", "config": {
        "stream": "iadd", "ilp": "HUGE", "threads": 1,
        "horizon_ticks": 8000}}], "unknown ilp 'HUGE'"),
    ([{"kind": "coexec-pair", "config": {"stream_a": "iadd"}}],
     "missing field 'stream_b'"),
    ([{"kind": "table1-row", "config": {}}], "missing field 'app'"),
])
def test_bad_cell_specs_name_the_constraint(specs, match):
    with pytest.raises(ConfigError, match=match):
        parse_cells(specs)

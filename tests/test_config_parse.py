"""Property test of the config parser: any file either parses or is rejected
with a ConfigError (CLI exit 1), never with another exception."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from beamalloc.cli import main  # noqa: E402
from beamalloc.experiment import _KEYS, ConfigError, ExperimentConfig, parse_config  # noqa: E402

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
_VALUE = st.one_of(
    _TEXT,
    st.sampled_from(
        ["0", "-1", "7", "2.7", "1e3", "1e999", "nan", "inf", "-inf", "true", "False", "no",
         "1", "300, 900", "16, 0", ",", "", "None", "zf, rzf", "equal, turbo"]
    ),
)
_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(_KEYS)), _VALUE),  # known key
    st.builds("{} = {}".format, _TEXT, _VALUE),  # mostly unknown keys
    _TEXT,  # malformed, blank or comment lines
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=6))
def test_parse_config_returns_config_or_raises_config_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_a_key_set_twice_names_both_lines(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("n_trials = 5\nsystem.n_beams = 7\n\n# again\nn_trials = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"twice\.cfg:5: 'n_trials' is already set on line 1"):
        parse_config(str(path))
    assert main(["run", "--config", str(path)]) == 1
    assert "already set" in capsys.readouterr().err

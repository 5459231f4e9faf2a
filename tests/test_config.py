from datetime import date
from pathlib import Path

import pytest

from campaigntrends import InvalidValueError
from campaigntrends.config import build_config, parse_config_lines


def make_raw(**overrides):
    raw = {"from": "2019-06-01", "to": "2019-07-20", "candidates": "ALPHA,BRAVO"}
    raw.update(overrides)
    return raw


class TestParseConfigLines:
    def test_basic_table(self):
        lines = [
            "# analysis window",
            "from = 2019-06-01",
            "to   = 2019-07-20",
            'candidates = "ALPHA, BRAVO"',
            "df = 12  # absolute override",
            "",
        ]
        table = parse_config_lines(lines)
        assert table["from"] == "2019-06-01"
        assert table["candidates"] == "ALPHA, BRAVO"
        assert table["df"] == "12"

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config_lines(["bogus = 1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config_lines(["just some text"])

    def test_unterminated_string_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config_lines(['out = "no closing quote'])


class TestBuildConfig:
    def test_defaults(self):
        config = build_config(make_raw())
        assert config.date_from == date(2019, 6, 1)
        assert config.candidates == ("ALPHA", "BRAVO")
        assert config.df is None
        assert config.df_per_90 == 12.0
        assert config.normalize == "raw"
        assert config.window_days == 10
        assert config.max_gap_days == 14
        assert config.out_dir == Path("out")

    def test_full_table(self):
        config = build_config(
            make_raw(
                committee_map="c.csv",
                fec_files="a.txt, b.txt",
                poll_csv="p.csv",
                events_csv="e.csv",
                df="8",
                normalize="share",
                window_days="5",
                max_gap_days="21",
                out="results",
            )
        )
        assert config.fec_files == (Path("a.txt"), Path("b.txt"))
        assert config.df == 8
        assert config.normalize == "share"
        assert config.window_days == 5
        assert config.out_dir == Path("results")

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(to="2019-05-01"))

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(candidates=" , "))

    def test_df_below_two_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(df="1"))

    def test_bad_normalize_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(normalize="percent"))

    def test_bad_date_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(**{"from": "June 1st"}))

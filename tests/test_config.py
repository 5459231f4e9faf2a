from datetime import date
from pathlib import Path

import pytest

from campaigntrends import InvalidValueError, config
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
            "df_per_90 = 12  # df budget per 90 days",
            "",
        ]
        table = parse_config_lines(lines)
        assert table["from"] == "2019-06-01"
        assert table["candidates"] == "ALPHA, BRAVO"
        assert table["df_per_90"] == "12"

    def test_unknown_key_rejected(self):
        for line in ["bogus = 1", "max_iter = 1", "df = 12"]:
            with pytest.raises(InvalidValueError, match="unknown key"):
                parse_config_lines([line])

    def test_key_given_twice_rejected(self):
        lines = ["from = 2019-06-01", "to = 2019-07-20", "# later", "FROM = 2019-06-05"]
        with pytest.raises(
            InvalidValueError, match=r"^config line 4: key 'from' given twice \(first on line 1\)$"
        ):
            parse_config_lines(lines)

    def test_docstring_lists_every_known_key(self):
        listing = config.__doc__.split("Recognized keys::", 1)[1]
        documented = {line.split("=", 1)[0].strip() for line in listing.splitlines() if "=" in line}
        assert documented == set(config.KEYS)

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config_lines(["just some text"])

    def test_unterminated_string_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config_lines(['out = "no closing quote'])


    @pytest.mark.parametrize("line, key", [
        ("df_per_90 =", "df_per_90"),
        ("df_per_90 = ''", "df_per_90"),
        ('out = ""', "out"),
        ("out = # note", "out"),
        ("out =   ", "out"),
    ])
    def test_empty_value_rejected(self, line, key):
        with pytest.raises(InvalidValueError, match=f"config line 2: empty value for '{key}'"):
            parse_config_lines(["# header", line])

    @pytest.mark.parametrize("line", [
        'candidates = "ALPHA", BRAVO',
        'out = "a" b',
        "out = 'a'b",
        'out = "a" "b"',
    ])
    def test_text_after_closing_quote_rejected(self, line):
        with pytest.raises(InvalidValueError, match="config line 2: text after closing quote"):
            parse_config_lines(["# header", line])

    @pytest.mark.parametrize("line", ['out = "a" # note', 'out = "a"#note', "out = 'a'   "])
    def test_comment_after_closing_quote_allowed(self, line):
        assert parse_config_lines([line]) == {"out": "a"}


class TestBuildConfig:
    def test_defaults(self):
        config = build_config(make_raw())
        assert config.date_from == date(2019, 6, 1)
        assert config.candidates == ("ALPHA", "BRAVO")
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
                df_per_90="8",
                normalize="share",
                window_days="5",
                max_gap_days="21",
                out="results",
            )
        )
        assert config.fec_files == (Path("a.txt"), Path("b.txt"))
        assert config.df_per_90 == 8.0
        assert config.normalize == "share"
        assert config.window_days == 5
        assert config.out_dir == Path("results")

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(to="2019-05-01"))

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(candidates=" , "))

    def test_bad_normalize_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(normalize="percent"))

    def test_bad_date_rejected(self):
        with pytest.raises(InvalidValueError):
            build_config(make_raw(**{"from": "June 1st"}))

    def test_duplicate_candidate_rejected(self):
        with pytest.raises(InvalidValueError, match="candidate 'ALPHA' listed twice"):
            build_config(make_raw(candidates="ALPHA,BRAVO, ALPHA"))

    @pytest.mark.parametrize("value", ["", "  "])
    @pytest.mark.parametrize("key", ["candidates", "out", "df_per_90", "committee_map", "fec_files"])
    def test_empty_value_rejected(self, key, value):
        with pytest.raises(InvalidValueError, match=f"empty value for '{key}'"):
            build_config(make_raw(**{key: value}))

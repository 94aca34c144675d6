import sys

import pytest

from incgrade.corpus import format_rational, parse_rational
from incgrade.errors import MalformedInputError, ResultTooLongError


class TestRationalStrings:
    def test_integer_form(self):
        assert format_rational(7) == "7"
        assert format_rational(-3) == "-3"
        assert format_rational(-6, 2) == "-3"

    def test_fraction_form(self):
        assert format_rational(1, 2) == "1/2"
        assert format_rational(-2, 6) == "-1/3"

    def test_round_trip(self):
        for text in ["0", "5", "-5", "2/3", "-7/4"]:
            assert format_rational(*parse_rational(text)) == text

    def test_only_num_and_num_den_parse(self):
        assert parse_rational(" +6/4 ") == (3, 2)
        assert parse_rational("0/5") == (0, 1)
        assert parse_rational(12) == (12, 1)
        for text in ["1e100000000", "1.5", "1_000", "\u0663", "1/-2", "/2",
                     "", "True", 1.0]:
            with pytest.raises(MalformedInputError, match="^rational must be"):
                parse_rational(text)
        with pytest.raises(MalformedInputError, match="^zero denominator"):
            parse_rational("1/0")

    def test_over_long_parts_are_malformed(self):
        assert parse_rational("-" + "7" * 4300) == (-int("7" * 4300), 1)
        for text in ["1" * 4301, "1/" + "2" * 4301, "0" * 4301 + "1"]:
            with pytest.raises(MalformedInputError,
                               match="^rational part has more than 4300 digits"):
                parse_rational(text)

    def test_over_long_parts_are_refused_on_output(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no digit limit")
        for value in [(10 ** limit,), (1, 10 ** limit)]:
            with pytest.raises(ResultTooLongError,
                               match=f"more than {limit} digits"):
                format_rational(*value)

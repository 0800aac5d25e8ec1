"""Parser robustness: arbitrary input must either parse or fail with a
library error — never an internal exception."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend import parse_program
from repro.lang import ReflexError
from repro.systems import ssh


class TestArbitraryInput:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    # '²'.isdigit() is true, but int('²') raises ValueError.
    @example('program p { components { A "a" {} } messages { M(num); } '
             'init { x = ²; } }')
    def test_random_text_never_crashes(self, text):
        try:
            parse_program(text)
        except ReflexError:
            pass  # the expected failure mode
        except RecursionError:
            pytest.fail("parser blew the stack")

    @settings(max_examples=100, deadline=None)
    @given(st.text(
        alphabet="program{}()[];:=<->,.\"ab0 \n",
        max_size=120,
    ))
    def test_syntaxish_soup_never_crashes(self, text):
        try:
            parse_program(text)
        except ReflexError:
            pass


class TestMutatedKernelSource:
    """Single-character deletions of a real kernel: each mutation either
    still parses (e.g. deleting whitespace) or raises a library error
    carrying a position."""

    @pytest.mark.parametrize("stride", [7])
    def test_deletions(self, stride):
        source = ssh.SOURCE
        for i in range(0, len(source), stride):
            mutated = source[:i] + source[i + 1:]
            try:
                parse_program(mutated)
            except ReflexError:
                continue

    def test_error_positions_are_plausible(self):
        source = ssh.SOURCE.replace("authorized = (\"\", false);",
                                    "authorized = = (\"\", false);")
        with pytest.raises(ReflexError) as excinfo:
            parse_program(source)
        message = str(excinfo.value)
        assert ":" in message  # line:column prefix

    def test_deep_nesting_within_reason(self):
        nested = "!(" * 40 + "true" + ")" * 40
        source = f'''
        program deep {{
          components {{ A "a.py" {{}} }}
          messages {{ M(string); }}
          init {{ X <- spawn A(); flag = {nested}; }}
        }}
        '''
        spec = parse_program(source)
        assert "flag" in spec.info.global_types

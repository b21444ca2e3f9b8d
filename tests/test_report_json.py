"""The report writer: ``report_json`` writes what
``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` writes, byte for byte."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from divalg.cli import report_json, report_text, run
from test_cli import GOLDEN


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config", [c for _, c, _ in GOLDEN], ids=[n for n, _, _ in GOLDEN])
def test_golden_reports_match_json_dumps(config):
    report, _ = run(json.loads(json.dumps(config)), 0)
    assert report_json(report) == reference(report)


GOLDEN_CONFIGS = {name: config for name, config, _ in GOLDEN}

# one config per job kind, with the sha256 of its JSON and its text report:
# a classical closure with a free degree, a q-closure with per-class
# dimensions, both verify jobs and qtorus-info, whose degree samples come
# from both ends of its box's degree order
JOB_KINDS = {
    "closure": (GOLDEN_CONFIGS["L-WPrime"],
                "456890cb1f6833e2935abce79ea8e0474656b768c2d099aa2d68332c3d12081b",
                "8c737286cab13359167d3896c99c7e67c8482c1d906cdc098ceac93d19ba608b"),
    "closure-q": (GOLDEN_CONFIGS["Lqhat-22-Class0"],
                  "d0877da29f9237563582985140d043009eb9bb3dc9eac760968b785176274f96",
                  "c07c90da328c44d6f5bd4a42311bcfeced6acd3fc5fddafd3cb10a614d9e11ae"),
    "verify-algebra": (GOLDEN_CONFIGS["verify-algebra-Lqhat-33"],
                       "9a71ff7a75aa097de8f1aff2bab4ebf51ef5d842dc333ed8c60bc8eb01d85453",
                       "2fb60fa90e664554ae4a15efd6e533d02d88b04980aa0b22335a9311865efd23"),
    "verify-module": (GOLDEN_CONFIGS["readme-verify-module"],
                      "55cc9ae3338acc3c0e0b382217c59fe4cd96efbfdc2488850736e3cc2e3226f9",
                      "15067cbe18fc10401cc8c32cc4795ad997e5b76d38b61f14aaa9a9e2c567df57"),
    "qtorus-info": ({"job": "qtorus-info", "q": {"l": [2, 2, 1]}, "sample_radius": 2},
                    "e4e4cae700dd6be49a8ae3cca459b5a62fdab58a3bf0dd4ad1f6781d79ee9f8a",
                    "fb97fd2493f57134063c8f284d233a3653acdc12da7c1082edd942de11f83b52"),
}


@pytest.mark.parametrize("kind", list(JOB_KINDS))
def test_every_job_kind_keeps_its_json_and_text_bytes(kind):
    config, json_digest, text_digest = JOB_KINDS[kind]
    report, code = run(json.loads(json.dumps(config)), 0)
    assert code == 0
    text = report_json(report)
    assert text == reference(report)
    assert sha(text) == json_digest
    assert sha(report_text(report)) == text_digest


# characters that json escapes or passes through: quotes, backslashes,
# control characters, DEL, the line separator, non-ASCII in and beyond the
# BMP, and lone surrogates
SPECIAL = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", " ",
           "é", "€", "\U0001f600", "\ud800", "\udfff"]
TEXT = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL)))
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.sampled_from([2 ** 64, -(10 ** 300), 10 ** 4000, 0, -1]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps_on_nested_values(value):
    assert report_json(value) == reference(value)


def test_empty_containers_and_tuples():
    value = {"a": [], "b": {}, "c": ((), [{}], ("x", 1)), "": [[[]]]}
    assert report_json(value) == reference(value)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_a_key_that_is_not_a_string_raises(key):
    with pytest.raises(TypeError):
        report_json({"a": {key: 1}})

"""The one JSON decoder of ingest's lines and of HttpBackend's answers.

A leaf module: it imports only ``json``, so a geocoder loads no tweet parser.
"""
import json

# _decode_json decodes a text with the one scan_once call that json.loads makes
# through JSONDecoder.decode, and does inline what loads and decode do around
# it: the BOM check, the two [ \t\n\r] skips, "Expecting value" and "Extra data".
_JSON_WHITESPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once
# The exact types the decoder gives a JSON number: a bool is an int, but not a number.
_NUMBER_TYPES = frozenset((int, float))


def _decode_json(s: str) -> object:
    """``json.loads(s)`` for a str: the same value, or the same exception with
    the same message and position."""
    if s.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
    try:
        obj, end = _scan_json(s, len(s) - len(s.lstrip(_JSON_WHITESPACE)))
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", s, err.value) from None
    # No JSON value ends in whitespace, so the line's end stripped of
    # whitespace is the value's end exactly when nothing else follows it.
    if len(s.rstrip(_JSON_WHITESPACE)) != end:
        raise json.JSONDecodeError("Extra data", s, len(s) - len(s[end:].lstrip(_JSON_WHITESPACE)))
    return obj

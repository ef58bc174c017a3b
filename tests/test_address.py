from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from rescuemap import (
    CompletionRule,
    FullAddress,
    complete_address,
    contains_texas,
    detect_address,
    extract_full_address,
)


class TestExtractFullAddress:
    def test_full_chain(self):
        text = "trapped at 4055 South Braeswood Blvd, Houston, TX 77025"
        addr = extract_full_address(detect_address(text))
        assert addr is not None
        assert addr.house_number == "4055"
        assert addr.street == "South Braeswood Blvd"
        assert addr.city == "Houston"
        assert addr.state == "TX"
        assert addr.zip == "77025"
        assert addr.completed == "4055 South Braeswood Blvd, Houston, TX 77025"
        assert addr.completion_rule is None

    def test_designator_form_without_locality(self):
        addr = extract_full_address(detect_address("need rescue 123 Ave. G"))
        assert addr is not None
        assert addr.house_number == "123"
        assert addr.street == "Ave. G"
        assert addr.city is None and addr.state is None and addr.zip is None

    def test_no_address_gives_none(self):
        assert detect_address("no address here") is None

    def test_unit_component(self):
        addr = extract_full_address(detect_address("stuck at 900 Elm St Apt 4B, Houston, TX"))
        assert addr.unit == "Apt 4B"
        assert addr.city == "Houston"
        assert addr.completed == "900 Elm St Apt 4B, Houston, TX"

    def test_hash_unit(self):
        addr = extract_full_address(detect_address("300 Polk St #12, Houston"))
        assert addr.unit == "#12"
        assert addr.city == "Houston"

    def test_hashtagged_word_is_not_a_unit(self):
        addr = extract_full_address(detect_address("300 Polk St #Houston, TX"))
        assert addr.unit is None
        assert addr.city == "Houston"
        assert addr.state == "TX"

    def test_full_state_name(self):
        addr = extract_full_address(detect_address("44 Cedar Ln, Houston, Texas"))
        assert addr.state == "Texas"
        assert addr.completed == "44 Cedar Ln, Houston, Texas"

    def test_city_requires_comma_or_state(self):
        # "Please Help" after the street must not be swallowed as a city.
        addr = extract_full_address(detect_address("go to 12 Oak St Please Help"))
        assert addr.city is None
        assert addr.completed == "12 Oak St"

    def test_city_accepted_when_state_follows(self):
        addr = extract_full_address(detect_address("77 Fannin St Houston TX"))
        assert addr.city == "Houston"
        assert addr.state == "TX"
        assert addr.completed == "77 Fannin St Houston TX"

    def test_two_word_city(self):
        addr = extract_full_address(detect_address("at 8 Main St, Bay City, TX"))
        assert addr.city == "Bay City"

    @pytest.mark.parametrize(
        "text, city, state, zip_code, completed",
        [
            (
                "12 Main St, Fargo North Dakota 58102",
                "Fargo", "North Dakota", "58102",
                "12 Main St, Fargo North Dakota 58102, Texas",
            ),
            (
                "12 Main St Buffalo New York",
                "Buffalo", "New York", None,
                "12 Main St Buffalo New York, Texas",
            ),
            (
                "12 Main St Charleston West Virginia",
                "Charleston", "West Virginia", None,
                "12 Main St Charleston West Virginia, Texas",
            ),
            (
                "12 Main St, South Houston, TX",
                "South Houston", "TX", None,
                "12 Main St, South Houston, TX",
            ),
            (
                "12 Main St, Port New Orleans",
                "Port New", None, None,
                "12 Main St, Port New, Texas",
            ),
        ],
        ids=["fargo", "buffalo", "charleston", "south_houston", "port_new_orleans"],
    )
    def test_second_city_word_does_not_start_a_two_word_state(
        self, text, city, state, zip_code, completed
    ):
        addr = complete_address(extract_full_address(detect_address(text)), [])
        assert (addr.city, addr.state, addr.zip, addr.completed) == (city, state, zip_code, completed)

    def test_lowercase_state_abbreviation_is_not_state(self):
        # "in" as a word must not become Indiana.
        addr = extract_full_address(detect_address("flooded at 12 Oak St in the dark"))
        assert addr.state is None
        assert addr.completed == "12 Oak St"

    def test_zip_only(self):
        addr = extract_full_address(detect_address("601 Travis St 77002"))
        assert addr.zip == "77002"
        assert addr.city is None

    def test_zip_plus_four(self):
        addr = extract_full_address(detect_address("601 Travis St, Houston, TX 77002-1234"))
        assert addr.zip == "77002-1234"

    def test_connectors_collapse_in_completed(self):
        addr = extract_full_address(detect_address("help  4055   South Braeswood Blvd ,  Houston"))
        assert addr.completed == "4055 South Braeswood Blvd, Houston"


HOUSTON_TAGS = ["houstonflooding"]


class TestCompleteAddress:
    def test_houston_hashtag_rule(self):
        addr = extract_full_address(detect_address("4055 South Braeswood Blvd"))
        done = complete_address(addr, HOUSTON_TAGS)
        assert done.completed == "4055 South Braeswood Blvd, Houston, TX"
        assert done.completion_rule is CompletionRule.HOUSTON_HASHTAG

    def test_texas_default_rule(self):
        addr = extract_full_address(detect_address("1108 Highway 7"))
        done = complete_address(addr, [])
        assert done.completed == "1108 Highway 7, Texas"
        assert done.completion_rule is CompletionRule.TEXAS_DEFAULT

    def test_extracted_texas_left_unchanged(self):
        addr = extract_full_address(detect_address("4055 South Braeswood Blvd, Houston, TX"))
        done = complete_address(addr, HOUSTON_TAGS)
        assert done.completed == "4055 South Braeswood Blvd, Houston, TX"
        assert done.completion_rule is CompletionRule.NONE

    def test_non_texas_locality_appends(self):
        addr = extract_full_address(detect_address("500 Crawford St, Houston"))
        done = complete_address(addr, [])
        assert done.completed == "500 Crawford St, Houston, Texas"
        assert done.completion_rule is CompletionRule.TEXAS_APPENDED

    def test_hashtag_match_is_substring_and_case_insensitive(self):
        addr = extract_full_address(detect_address("9 Oak Ln"))
        done = complete_address(addr, ["HOUSTONstrong"])
        assert done.completion_rule is CompletionRule.HOUSTON_HASHTAG

    def test_unit_does_not_count_as_locality(self):
        addr = extract_full_address(detect_address("900 Elm St Apt 4B"))
        assert addr.unit == "Apt 4B"
        done = complete_address(addr, [])
        assert done.completion_rule is CompletionRule.TEXAS_DEFAULT
        assert done.completed == "900 Elm St Apt 4B, Texas"

    def test_idempotence(self):
        for text, tags in [
            ("4055 South Braeswood Blvd", HOUSTON_TAGS),
            ("1108 Highway 7", []),
            ("4055 South Braeswood Blvd, Houston, TX", []),
            ("500 Crawford St, Houston", []),
        ]:
            once = complete_address(extract_full_address(detect_address(text)), tags)
            twice = complete_address(once, tags)
            assert once == twice

    def test_every_completed_address_names_texas(self):
        for text, tags in [
            ("4055 South Braeswood Blvd", HOUSTON_TAGS),
            ("1108 Highway 7", []),
            ("123 Ave. G", ["harvey"]),
            ("500 Crawford St, Houston", []),
            ("601 Travis St 77002", []),
            ("44 Elm St, Miami, FL", []),
            ("77 Fannin St Houston TX", []),
        ]:
            done = complete_address(extract_full_address(detect_address(text)), tags)
            assert contains_texas(done.completed), done


class TestFullAddressInstances:
    """Extraction and completion fill each FullAddress through its slots."""

    FIELDS = dict(
        house_number="900", street="Elm St", unit="Apt 4B", city="Houston", state="TX",
        zip=None, completed="900 Elm St Apt 4B, Houston, TX", completion_rule=None,
    )

    def extracted(self) -> FullAddress:
        return extract_full_address(detect_address("at 900 Elm St Apt 4B, Houston, TX now"))

    def test_no_instance_dict(self):
        # A per-instance __dict__ would add a dict to every address kept.
        extracted = self.extracted()
        for addr in (extracted, complete_address(extracted, []), FullAddress(**self.FIELDS)):
            assert not hasattr(addr, "__dict__")

    def test_equal_to_the_constructed_instance(self):
        extracted, built = self.extracted(), FullAddress(**self.FIELDS)
        assert extracted == built
        assert hash(extracted) == hash(built)
        assert repr(extracted) == repr(built)
        done = complete_address(extracted, [])
        expected = FullAddress(**{**self.FIELDS, "completion_rule": CompletionRule.NONE})
        assert (done, hash(done), repr(done)) == (expected, hash(expected), repr(expected))

    def test_frozen_and_replaceable(self):
        addr = self.extracted()
        with pytest.raises(dataclasses.FrozenInstanceError):
            addr.city = "Katy"
        assert dataclasses.replace(addr, city="Katy") == FullAddress(**{**self.FIELDS, "city": "Katy"})
        assert dataclasses.asdict(addr) == self.FIELDS


class TestContainsTexas:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4055 Braeswood Blvd, Houston, TX", True),
            ("1108 Highway 7, Texas", True),
            ("somewhere in texas tonight", True),
            ("TXDOT road closure", False),  # TX only as part of a longer token
            ("500 Crawford St, Houston", False),
            ("", False),
        ],
    )
    def test_cases(self, text, expected):
        assert contains_texas(text) is expected


# Canonical grammar strings: components separated by single spaces must
# reassemble losslessly into the completed string.
@pytest.mark.parametrize(
    "text",
    [
        "4055 South Braeswood Blvd Houston TX 77025",
        "123 Main St Apt 4 Houston TX",
        "1108 Highway 7 Houston TX",
        "9 Oak Ln Houston TX 77002",
    ],
)
def test_canonical_form_reassembles_losslessly(text):
    addr = extract_full_address(detect_address(text))
    parts = [addr.house_number, addr.street, addr.unit, addr.city, addr.state, addr.zip]
    reassembled = " ".join(p for p in parts if p)
    assert reassembled == text
    assert addr.completed == text


@given(
    number=st.integers(min_value=1, max_value=999999),
    name=st.sampled_from(["Main", "Oak", "South Braeswood", "Telephone", "Cypress Creek"]),
    suffix=st.sampled_from(["St", "Blvd", "Ln", "Rd", "Dr"]),
    tags=st.lists(st.sampled_from(["harvey", "houstonflood", "htx", "flood"]), max_size=3),
)
def test_completion_always_names_texas(number, name, suffix, tags):
    addr = extract_full_address(detect_address(f"{number} {name} {suffix}"))
    assert addr is not None
    done = complete_address(addr, tags)
    assert contains_texas(done.completed)
    assert done.completed.startswith(f"{number} {name} {suffix}")
    assert done.completion_rule is not None

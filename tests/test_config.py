"""The serving-config tree: one range declaration per knob, read by both
``__post_init__`` validation and the generated CLI flags."""

import argparse
from dataclasses import fields

import pytest

from repro.config import POSITIVE, Config, Range, add_flags, from_args
from repro.fleet import FleetConfig, FleetError
from repro.resilience import BreakerConfig, BreakerError, ResilienceConfig
from repro.runtime import LoadProfile, RetryPolicy, RuntimeConfig
from repro.soa import BrokerConfig, BrokerError

#: Every config class of the tree.
TREE = (BrokerConfig, RuntimeConfig, ResilienceConfig, LoadProfile, FleetConfig)


def knobs(cls):
    """(class, field, knob) for every declared knob under ``cls``."""
    for spec in fields(cls):
        tree = spec.metadata.get("tree")
        if tree is not None:
            yield from knobs(tree)
        elif "knob" in spec.metadata:
            yield cls, spec, spec.metadata["knob"]


class TestRange:
    def test_real_bounds(self):
        share = Range(0.0, 1.0, strict=True)
        assert share.contains(1.0) and not share.contains(0.0)
        assert not share.contains(float("nan"))
        assert share("0.5") == 0.5
        with pytest.raises(argparse.ArgumentTypeError, match=r"\(0, 1\]"):
            share("0")

    def test_integer_bounds(self):
        assert Range(1, integer=True)("3") == 3
        with pytest.raises(argparse.ArgumentTypeError, match="at least 1"):
            Range(1, integer=True)("0")
        with pytest.raises(ValueError):
            Range(1, integer=True)("x")


class TestValidation:
    def test_every_default_is_in_range(self):
        for cls in TREE:
            cls()  # raises on a default outside its own range

    @pytest.mark.parametrize("cls", TREE, ids=lambda cls: cls.__name__)
    def test_flag_type_and_validation_agree(self, cls):
        # One declaration, two readers: a value the flag type rejects is
        # one the dataclass rejects, and the other way round.
        for owner, spec, declared in knobs(cls):
            if declared.range is None:
                continue
            low = declared.range.low
            for value in (low - 1, low, low + 1):
                text = str(int(value) if declared.range.integer else value)
                try:
                    declared.range(text)
                    flag_ok = True
                except argparse.ArgumentTypeError:
                    flag_ok = False
                try:
                    owner(**{spec.name: value})
                    config_ok = True
                except owner.error:
                    config_ok = False
                assert flag_ok == config_ok, (owner.__name__, spec.name, value)

    def test_errors_name_the_field_and_raise_the_class_error(self):
        with pytest.raises(BreakerError, match=r"probe_jitter must be .*\[0, 1\]"):
            BreakerConfig(probe_jitter=1.5)
        with pytest.raises(BrokerError, match="allocation_policy"):
            BrokerConfig(allocation_policy="lottery")

    def test_optional_knobs_accept_none(self):
        assert RuntimeConfig(deadline_s=None).deadline_s is None
        assert BrokerConfig(slo_penalty=None).slo_penalty is None

    def test_fleet_refuses_runtime_fields_it_derives(self):
        for name, value in (("workers", 8), ("verify_independence", True)):
            with pytest.raises(FleetError, match=f"runtime.{name}"):
                FleetConfig(runtime=RuntimeConfig(**{name: value}))
        shard = FleetConfig(
            workers_per_shard=3, seed=7, runtime=RuntimeConfig(deadline_s=None)
        ).shard_runtime()
        assert (shard.workers, shard.seed, shard.deadline_s) == (3, 7, None)
        assert shard.probe_interval_s == 0.0

    def test_to_dict_nests_subtrees(self):
        payload = BrokerConfig(slo_penalty=0.3).to_dict()
        assert payload["slo_penalty"] == 0.3
        assert payload["rounds"] == {"window_ms": 2.0, "max_batch": 32}
        assert isinstance(BrokerConfig().rounds, Config)


class TestFlags:
    def parse(self, cls, *argv):
        parser = argparse.ArgumentParser()
        add_flags(parser, cls)
        return parser.parse_args(argv)

    def test_round_trip_through_flags(self):
        args = self.parse(RuntimeConfig, "--workers", "3", "--deadline", "0")
        config = from_args(RuntimeConfig, args)
        assert config == RuntimeConfig(workers=3, deadline_s=None)
        assert from_args(RetryPolicy, self.parse(RetryPolicy)) == RetryPolicy()

    def test_optional_subtree_is_on_when_any_flag_is_given(self):
        off = from_args(ResilienceConfig, self.parse(ResilienceConfig))
        assert not off.any_enabled
        on = from_args(
            ResilienceConfig,
            self.parse(ResilienceConfig, "--breaker-recovery", "0"),
        )
        assert on.breaker == BreakerConfig(recovery_s=0.0)
        assert on.dlq is None
        everything = from_args(
            ResilienceConfig,
            self.parse(ResilienceConfig, "--breaker-recovery", "0"),
            enable=True,
        )
        assert everything.breaker == BreakerConfig(recovery_s=0.0)
        assert everything.dlq is not None

    def test_ranges_are_the_flag_types(self):
        with pytest.raises(SystemExit):
            self.parse(LoadProfile, "--rate", "0")
        assert POSITIVE.contains(1e-9)

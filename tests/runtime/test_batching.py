"""The allocation-round window: :class:`BatchConfig`'s defaults and range
checks (the rounds themselves are covered in ``test_allocation_rounds``)."""

import pytest

from repro.runtime import BatchConfig, BatchingError


class TestBatchConfig:
    def test_defaults(self):
        config = BatchConfig()
        assert config.window_ms == 2.0
        assert config.max_batch == 32

    @pytest.mark.parametrize(
        "kwargs", [{"window_ms": -1.0}, {"max_batch": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(BatchingError):
            BatchConfig(**kwargs)

"""Seeding and serialization utilities."""

import numpy as np
import pytest

from repro.utils import (
    RngStream,
    clone_state,
    derive_seed,
    load_state_bytes,
    save_state_bytes,
    state_allclose,
    state_equal,
    state_nbytes,
    stream,
)


class TestSeeding:
    def test_derive_seed_stable(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_derive_seed_distinguishes_keys(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_key_boundary_not_ambiguous(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_stream_reproducible(self):
        a = stream(3, "x").normal(size=5)
        b = stream(3, "x").normal(size=5)
        assert np.array_equal(a, b)

    def test_child_streams_independent(self):
        root = RngStream(0)
        a = root.child("a").generator().normal(size=4)
        b = root.child("b").generator().normal(size=4)
        assert not np.array_equal(a, b)

    def test_child_path_equivalence(self):
        assert RngStream(0, "a", "b").seed == RngStream(0).child("a", "b").seed
        assert RngStream(0).child("a").child("b").seed == RngStream(0, "a", "b").seed


class TestSerialization:
    def make_state(self):
        return {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}

    def test_clone_is_deep(self):
        s = self.make_state()
        c = clone_state(s)
        c["w"][0, 0] = 99
        assert s["w"][0, 0] == 0

    def test_state_equal(self):
        s = self.make_state()
        assert state_equal(s, clone_state(s))
        c = clone_state(s)
        c["w"][0, 0] += 1
        assert not state_equal(s, c)

    def test_state_equal_compares_bits(self):
        assert not state_equal({"w": np.array([-0.0])}, {"w": np.array([0.0])})
        nan = np.array([np.nan])
        assert state_equal({"w": nan}, {"w": nan.copy()})
        assert not state_equal({"w": np.zeros(2)},
                               {"w": np.zeros(2, dtype=np.float32)})

    def test_state_equal_requires_same_keys(self):
        s = self.make_state()
        assert not state_equal(s, {"w": s["w"]})

    def test_allclose_tolerates_fp_error(self):
        s = self.make_state()
        c = {k: v + 1e-12 for k, v in s.items()}
        assert not state_equal(s, c)
        assert state_allclose(s, c)

    def test_nbytes(self):
        assert state_nbytes(self.make_state()) == 6 * 8 + 3 * 8

    def test_bytes_roundtrip(self):
        s = self.make_state()
        restored = load_state_bytes(save_state_bytes(s))
        assert state_equal(s, restored)

"""Keccak/SHAKE tests: derived constants, known answers, hashlib oracle."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.keccak import (
    KECCAK_ROUNDS,
    KeccakSponge,
    Shake,
    keccak_f1600,
    sha3_256,
    sha3_512,
    shake128,
    shake256,
)
from repro.keccak.permutation import RHO_OFFSETS, ROUND_CONSTANTS


class TestDerivedConstants:
    def test_round_constant_count(self):
        assert len(ROUND_CONSTANTS) == KECCAK_ROUNDS == 24

    def test_first_and_last_round_constants(self):
        # FIPS 202 values; the generator must reproduce them exactly.
        assert ROUND_CONSTANTS[0] == 0x0000000000000001
        assert ROUND_CONSTANTS[1] == 0x0000000000008082
        assert ROUND_CONSTANTS[23] == 0x8000000080008008

    def test_rho_offsets(self):
        assert RHO_OFFSETS[0] == 0  # lane (0,0) never rotates
        assert sorted(RHO_OFFSETS)[1:] != [0] * 24  # all others non-zero
        assert RHO_OFFSETS[1 + 5 * 0] == 1  # lane (1,0) rotates by 1


class TestPermutation:
    def test_state_length_checked(self):
        with pytest.raises(ValueError):
            keccak_f1600([0] * 24)

    def test_zero_state_known_first_lane(self):
        out = keccak_f1600([0] * 25)
        # Keccak-f[1600] on the all-zero state: well-known first lane.
        assert out[0] == 0xF1258F7940E1DDE7

    def test_deterministic(self):
        state = list(range(25))
        assert keccak_f1600(state) == keccak_f1600(state)

    def test_not_identity(self):
        assert keccak_f1600([0] * 25) != [0] * 25


class TestAgainstHashlib:
    CASES = [b"", b"a", b"abc", b"PASTA on Edge", bytes(range(256)), b"x" * 1000]

    @pytest.mark.parametrize("msg", CASES, ids=[f"len{len(c)}" for c in CASES])
    def test_shake128(self, msg):
        assert shake128(msg).read(100) == hashlib.shake_128(msg).digest(100)

    @pytest.mark.parametrize("msg", CASES, ids=[f"len{len(c)}" for c in CASES])
    def test_shake256(self, msg):
        assert shake256(msg).read(100) == hashlib.shake_256(msg).digest(100)

    @pytest.mark.parametrize("msg", CASES, ids=[f"len{len(c)}" for c in CASES])
    def test_sha3(self, msg):
        assert sha3_256(msg) == hashlib.sha3_256(msg).digest()
        assert sha3_512(msg) == hashlib.sha3_512(msg).digest()

    @given(st.binary(max_size=500))
    def test_shake128_property(self, msg):
        assert shake128(msg).read(48) == hashlib.shake_128(msg).digest(48)

    def test_rate_boundary_messages(self):
        """Messages straddling the 168-byte rate exercise the padding path."""
        for n in (166, 167, 168, 169, 335, 336, 337):
            msg = bytes(i & 0xFF for i in range(n))
            assert shake128(msg).read(32) == hashlib.shake_128(msg).digest(32)


class TestIncrementalApi:
    def test_split_absorb_equivalent(self):
        whole = shake128(b"hello world")
        split = shake128()
        split.absorb(b"hello ")
        split.absorb(b"world")
        assert whole.read(64) == split.read(64)

    def test_split_squeeze_equivalent(self):
        a = shake128(b"seed")
        b = shake128(b"seed")
        whole = a.read(500)
        parts = b.read(3) + b.read(168) + b.read(329)
        assert whole == parts

    def test_absorb_after_squeeze_raises(self):
        x = shake128(b"seed")
        x.read(1)
        with pytest.raises(RuntimeError):
            x.absorb(b"more")

    def test_words_match_bytes(self):
        a = shake128(b"words")
        b = shake128(b"words")
        stream = b.words()
        raw = a.read(40)
        for i in range(5):
            assert next(stream) == int.from_bytes(raw[8 * i : 8 * i + 8], "little")

    def test_permutation_count(self):
        x = shake128(b"count")
        assert x.permutation_count == 0
        x.read(168)  # first squeeze block: padding permutation only
        assert x.permutation_count == 1
        x.read(1)  # crosses into the second block
        assert x.permutation_count == 2

    def test_words_per_permutation(self):
        assert shake128().words_per_permutation == 21
        assert shake256().words_per_permutation == 17

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            KeccakSponge(rate_bytes=0, domain_suffix=0x1F)
        with pytest.raises(ValueError):
            KeccakSponge(rate_bytes=201, domain_suffix=0x1F)


def _sponge_xof(rate: int, data: bytes) -> KeccakSponge:
    sponge = KeccakSponge(rate, domain_suffix=0x1F)
    sponge.absorb(data)
    return sponge


class TestSpongeModelAgainstHashlib:
    """The in-repo sponge itself, now that ``Shake`` draws from hashlib."""

    RATES = {168: hashlib.shake_128, 136: hashlib.shake_256}

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_rate_boundary_messages(self, rate):
        for n in (0, 1, rate - 2, rate - 1, rate, rate + 1, 2 * rate - 1, 2 * rate, 2 * rate + 1):
            msg = bytes((7 * i) & 0xFF for i in range(n))
            expected = self.RATES[rate](msg).digest(3 * rate + 5)
            assert _sponge_xof(rate, msg).squeeze(3 * rate + 5) == expected

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_split_squeezes(self, rate):
        expected = self.RATES[rate](b"split").digest(4 * rate)
        for splits in ((0, 1, rate - 1, rate), (rate, rate, 0, 2 * rate), (5, 2 * rate, 2 * rate - 5)):
            sponge = _sponge_xof(rate, b"split")
            out = b"".join(sponge.squeeze(n) for n in splits)
            assert out == expected[: len(out)]
            assert sponge.permutation_count == max(1, -(-len(out) // rate))


_SHAKE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), st.binary(max_size=400)),
        st.tuples(st.just("read"), st.integers(0, 400)),
        st.tuples(st.just("words"), st.integers(0, 40)),
    ),
    max_size=12,
)


class TestShakeMatchesSponge:
    """``Shake`` (hashlib-backed) is the sponge model, call for call."""

    @given(rate=st.sampled_from([168, 136]), calls=_SHAKE_CALLS)
    def test_random_absorb_and_read_splits(self, rate, calls):
        shake = Shake(rate)
        sponge = KeccakSponge(rate, domain_suffix=0x1F)
        words = shake.words()
        squeezing = False
        for kind, arg in calls:
            if kind == "absorb" and squeezing:
                with pytest.raises(RuntimeError):
                    shake.absorb(arg)
                with pytest.raises(RuntimeError):
                    sponge.absorb(arg)
            elif kind == "absorb":
                shake.absorb(arg)
                sponge.absorb(arg)
            elif kind == "read":
                assert shake.read(arg) == sponge.squeeze(arg)
                squeezing = True
            else:
                squeezing = squeezing or arg > 0
                got = [next(words) for _ in range(arg)]
                assert got == [int.from_bytes(sponge.squeeze(8), "little") for _ in range(arg)]
            assert shake.permutation_count == sponge.permutation_count
        assert shake.read(rate + 3) == sponge.squeeze(rate + 3)
        assert shake.permutation_count == sponge.permutation_count

    def test_read_zero_finalizes(self):
        shake = shake128(b"x" * 168)
        shake.read(0)
        assert shake.permutation_count == 2
        with pytest.raises(RuntimeError):
            shake.absorb(b"")


class TestShakeRejectsMalformedInput:
    def test_negative_read(self):
        shake = shake128(b"seed")
        with pytest.raises(ValueError):
            shake.read(-1)
        # The rejected read did not finalize: absorbing is still allowed.
        shake.absorb(b"more")
        assert shake.read(16) == hashlib.shake_128(b"seedmore").digest(16)

    @pytest.mark.parametrize("rate", [0, 72, 100, 144, 200])
    def test_unsupported_rate(self, rate):
        with pytest.raises(ValueError):
            Shake(rate)

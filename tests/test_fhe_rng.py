"""PolyRng: the vectorized samplers against the per-coefficient reference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.fhe import BatchEncoder, Bfv, PolyRng, toy_parameters
from repro.hhe import BatchedHheServer, encrypt_key_batched
from repro.pasta import PASTA_MICRO, PastaParams, random_key

from rng_reference import ReferencePolyRng

MODULI = [2, 3, 65537, 2**61 - 1, (1 << 240) - 2**32 + 1]
COUNTS = [0, 1, 3, 512]

_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("uniform_mod"), st.sampled_from(MODULI), st.sampled_from(COUNTS)),
        st.tuples(st.just("ternary"), st.sampled_from(COUNTS)),
        st.tuples(st.just("centered_binomial"), st.integers(0, 21), st.sampled_from(COUNTS)),
    ),
    max_size=5,
)


class TestMatchesReference:
    @given(seed=st.binary(max_size=8), calls=_CALLS)
    def test_mixed_call_sequences(self, seed, calls):
        rng = PolyRng(seed)
        ref = ReferencePolyRng(seed)
        for name, *args in calls:
            assert getattr(rng, name)(*args) == getattr(ref, name)(*args)
        # Same next bytes: both samplers left the stream at the same position.
        assert rng._shake.read(64) == ref.sponge.squeeze(64)
        assert rng._shake.permutation_count == ref.sponge.permutation_count

    def test_ternary_stops_mid_byte(self):
        rng = PolyRng(b"mid")
        ref = ReferencePolyRng(b"mid")
        for count in (1, 2, 5, 7, 1):
            assert rng.ternary(count) == ref.ternary(count)
        assert rng._shake.read(8) == ref.sponge.squeeze(8)


def _client_material(scheme, pasta, n):
    sk, pk, rlk = scheme.keygen()
    gk = scheme.rotation_keygen(sk, BatchedHheServer.required_rotation_steps(pasta, n))
    encoder = BatchEncoder(n, pasta.p)
    enc_key = encrypt_key_batched(scheme, pk, encoder, random_key(pasta, b"rng-keys"))
    eng = scheme.engine
    centered = eng.centered
    return {
        "sk": centered(sk.s),
        "pk": [centered(pk.b), centered(pk.a)],
        "rlk": [[centered(b), centered(a)] for b, a in rlk.parts],
        "gk": {g: [[centered(b), centered(a)] for b, a in parts] for g, parts in gk.keys.items()},
        "enc_key": [[centered(part) for part in ct.parts] for ct in enc_key],
    }


def _assert_keys_match_reference(pasta, bfv_params, seed):
    fast = _client_material(Bfv(bfv_params, seed=seed), pasta, bfv_params.n)
    scheme = Bfv(bfv_params, seed=seed)
    scheme._rng = ReferencePolyRng(seed)
    reference = _client_material(scheme, pasta, bfv_params.n)
    assert fast == reference


class TestSchemeMatchesReference:
    """Keys and the encrypted PASTA key, residue for residue."""

    def test_small_instance(self):
        pasta = PastaParams(name="rng-quad", t=4, rounds=2, p=PASTA_MICRO.p, secure=False)
        _assert_keys_match_reference(pasta, toy_parameters(pasta.p, n=64, log2_q=120), b"rng")

    @pytest.mark.slow
    def test_session_instance(self):
        # The end-to-end benchmark's session: N=512, log2 q=240 over 26-bit primes.
        pasta = PastaParams(name="pasta-bsgs", t=32, rounds=2, p=PASTA_MICRO.p, secure=False)
        params = toy_parameters(pasta.p, n=512, log2_q=240, prime_bits=26)
        _assert_keys_match_reference(pasta, params, b"rng-session")


class TestRejectsMalformedInput:
    @pytest.mark.parametrize("modulus", [0, -5])
    def test_non_positive_modulus(self, modulus):
        with pytest.raises(ParameterError):
            PolyRng(b"x").uniform_mod(modulus, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: rng.uniform_mod(17, -1),
            lambda rng: rng.ternary(-1),
            lambda rng: rng.centered_binomial(2, -1),
            lambda rng: rng.centered_binomial(-1, 4),
        ],
        ids=["uniform_count", "ternary_count", "binomial_count", "binomial_eta"],
    )
    def test_negative_count_or_eta(self, call):
        with pytest.raises(ParameterError):
            call(PolyRng(b"x"))

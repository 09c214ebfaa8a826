"""Mock signature scheme plumbing and the witness format."""

from sdag.core import sha256
from sdag.sigs import DEFAULT_SCHEME, MockScheme


def test_roundtrip():
    s = MockScheme()
    secret = sha256(b"secret")
    public = s.derive_public(secret)
    sig = s.sign(secret, b"msg")
    assert len(public) == 32 and len(sig) == 64
    assert s.verify(public, b"msg", sig)
    assert not s.verify(public, b"other", sig)
    assert not s.verify(public, b"msg", bytes(64))


def test_deterministic_addresses():
    s = DEFAULT_SCHEME
    secret = sha256(b"secret")
    assert s.address(s.derive_public(secret)) == s.address(s.derive_public(secret))
    assert s.address(s.derive_public(secret)) != s.address(s.derive_public(sha256(b"x")))


SECRET = sha256(b"secret")
ADDRESS = DEFAULT_SCHEME.address(DEFAULT_SCHEME.derive_public(SECRET))


def test_witness_opens_for_its_owner():
    """A witness is the key, then its signature; it opens against the key's
    address and the message it signed, given as bytes or as a function."""
    s = DEFAULT_SCHEME
    witness = s.witness(SECRET, b"msg")
    assert witness == s.derive_public(SECRET) + s.sign(SECRET, b"msg")
    assert s.opens(witness, ADDRESS, b"msg") is True
    assert s.opens(witness, ADDRESS, lambda: b"msg") is True
    assert s.opens(witness, ADDRESS, b"other") is False


def test_opens_refuses_a_witness_of_the_wrong_length():
    witness = DEFAULT_SCHEME.witness(SECRET, b"msg")
    assert DEFAULT_SCHEME.opens(witness[:-1], ADDRESS, b"msg") is None
    assert DEFAULT_SCHEME.opens(witness + b"\0", ADDRESS, b"msg") is None


def test_opens_refuses_another_key_or_address():
    """Another key's witness is valid for its own address but does not open
    this one; the right witness does not open another address, and then
    the message is never asked for."""
    s = DEFAULT_SCHEME
    other = sha256(b"other")
    assert s.opens(s.witness(other, b"msg"), ADDRESS, b"msg") is False
    assert s.opens(s.witness(other, b"msg"), s.address(s.derive_public(other)), b"msg") is True

    def unread():
        raise AssertionError("the message was hashed for a key that does not own the address")

    assert s.opens(s.witness(SECRET, b"msg"), s.address(s.derive_public(other)), unread) is False

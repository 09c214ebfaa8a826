"""The one signature scheme: a deterministic mock, called directly.

The mock derives the signature purely from the public key and the message,
so anyone holding the public key can "sign" -- it has no security and exists
only to make signature plumbing cheap and reproducible in simulations.
"""

from __future__ import annotations

from .core import sha256


class MockScheme:
    """Keyed-hash mock: 32-byte keys, 64-byte signatures.  NOT secure."""

    def derive_public(self, secret: bytes) -> bytes:
        return sha256(b"sdag-mock-pub" + secret)

    def address(self, public: bytes) -> bytes:
        return sha256(b"sdag-mock-addr" + public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        public = self.derive_public(secret)
        return self._sig(public, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return signature == self._sig(public, message)

    @staticmethod
    def _sig(public: bytes, message: bytes) -> bytes:
        a = sha256(b"sdag-mock-sig-a" + public + message)
        b = sha256(b"sdag-mock-sig-b" + public + message)
        return a + b


DEFAULT_SCHEME = MockScheme()

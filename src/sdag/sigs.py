"""The one signature scheme: a deterministic mock, called directly.

The mock derives the signature purely from the public key and the message,
so anyone holding the public key can "sign" -- it has no security and exists
only to make signature plumbing cheap and reproducible in simulations.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import sha256


class MockScheme:
    """Keyed-hash mock.  NOT secure.  A witness is a 32-byte public key, then
    its 64-byte signature; `witness` builds one and `opens` checks one."""

    def derive_public(self, secret: bytes) -> bytes:
        return sha256(b"sdag-mock-pub" + secret)

    def address(self, public: bytes) -> bytes:
        return sha256(b"sdag-mock-addr" + public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        public = self.derive_public(secret)
        return self._sig(public, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return signature == self._sig(public, message)

    def witness(self, secret: bytes, message: bytes) -> bytes:
        return self.derive_public(secret) + self.sign(secret, message)

    def opens(self, witness: bytes, address: bytes, message: bytes | Callable[[], bytes]) -> Optional[bool]:
        """Whether `witness` holds a key that owns `address` and its signature
        of `message` (bytes, or a function called only once the key owns
        it); None if the witness is not 32 + 64 bytes."""
        if len(witness) != 96:
            return None
        public, sig = witness[:32], witness[32:]
        owned = self.address(public) == address
        return owned and self.verify(public, message() if callable(message) else message, sig)

    @staticmethod
    def _sig(public: bytes, message: bytes) -> bytes:
        a = sha256(b"sdag-mock-sig-a" + public + message)
        b = sha256(b"sdag-mock-sig-b" + public + message)
        return a + b


DEFAULT_SCHEME = MockScheme()

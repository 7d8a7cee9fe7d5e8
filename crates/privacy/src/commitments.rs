//! Hashlocks: funds claimable by whoever reveals a committed preimage — the
//! HTLC building block used by payment channels and cross-chain swaps
//! (\[31\]), and the commitment the cross-channel atomic swap of
//! [`crate::multichannel`] rests on.

use dcs_crypto::Hash256;
use serde::{Deserialize, Serialize};

/// A hashlock: funds claimable by whoever reveals the preimage of `lock`
/// (the HTLC building block used by payment channels and atomic swaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hashlock {
    /// SHA-256 of the secret preimage.
    pub lock: Hash256,
}

impl Hashlock {
    /// Creates a lock from a secret.
    pub fn from_secret(secret: &[u8]) -> Self {
        Hashlock {
            lock: dcs_crypto::sha256(secret),
        }
    }

    /// Checks a claimed preimage.
    pub fn unlocks(&self, preimage: &[u8]) -> bool {
        dcs_crypto::sha256(preimage) == self.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashlock_semantics() {
        let lock = Hashlock::from_secret(b"preimage-42");
        assert!(lock.unlocks(b"preimage-42"));
        assert!(!lock.unlocks(b"preimage-43"));
    }
}

//! Property-based tests for the cryptographic substrate: codec round-trips,
//! Merkle proof soundness/completeness, streaming-hash equivalence, and
//! signature correctness over arbitrary inputs.

use dcs_crypto::codec::{decode_all, Encode};
use dcs_crypto::{sha256, Hash256, KeyPair, MerkleProof, MerkleTree, Sha256};
use proptest::prelude::*;

proptest! {
    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut ctx = Sha256::new();
        ctx.update(&data[..split]);
        ctx.update(&data[split..]);
        prop_assert_eq!(ctx.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_is_injective_in_practice(a in proptest::collection::vec(any::<u8>(), 0..64),
                                       b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn codec_round_trips_vecs(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(decode_all::<Vec<u64>>(&v.encoded()).unwrap(), v);
    }

    #[test]
    fn codec_round_trips_strings(s in "\\PC{0,64}") {
        prop_assert_eq!(decode_all::<String>(&s.encoded()).unwrap(), s);
    }

    #[test]
    fn codec_round_trips_nested(v in proptest::collection::vec((any::<u32>(), "\\PC{0,16}"), 0..16)) {
        prop_assert_eq!(decode_all::<Vec<(u32, String)>>(&v.encoded()).unwrap(), v);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Totality: arbitrary input decodes or errors, never panics.
        let _ = decode_all::<Vec<String>>(&bytes);
        let _ = decode_all::<Hash256>(&bytes);
        let _ = decode_all::<MerkleProof>(&bytes);
        let _ = decode_all::<(u64, Option<bool>)>(&bytes);
    }

    /// Hostile bytes: any well-formed `Signature` encoding — any index, any
    /// number of chain values or path nodes — decodes to a value `verify`
    /// refuses without panicking (it used to index 67 chain values blindly).
    #[test]
    fn verify_refuses_arbitrary_decoded_signatures(
        // Biased toward the shapes that pass the earlier checks (height 2:
        // index < 4, two path nodes), so the chain-count check is what
        // stands between a short list and the chain loop.
        index in prop_oneof![0u32..4, any::<u32>()],
        chain_len in prop_oneof![Just(67usize), 0usize..80],
        path_len in prop_oneof![Just(2usize), 0usize..4],
        fill in any::<[u8; 32]>(),
        msg in any::<[u8; 32]>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use dcs_crypto::Signature;

        let pk = KeyPair::generate([0xC3; 32], 2).public_key();
        let msg = Hash256::from_bytes(msg);
        let mut bytes = index.encoded();
        for len in [chain_len, path_len] {
            bytes.extend((len as u32).encoded());
            for i in 0..len {
                bytes.extend_from_slice(sha256(&[&fill[..], &[i as u8]].concat()).as_ref());
            }
        }
        let sig = decode_all::<Signature>(&bytes).expect("well-formed encoding");
        prop_assert!(!pk.verify(&msg, &sig));
        if let Ok(sig) = decode_all::<Signature>(&garbage) {
            prop_assert!(!pk.verify(&msg, &sig));
        }
    }

    #[test]
    fn merkle_proofs_complete_and_sound(n in 1usize..40, probe in 0usize..40) {
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&[i as u8])).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let root = tree.root();
        let idx = probe % n;
        // Completeness: every leaf proves.
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&leaves[idx], &root));
        // Soundness: the proof binds to its own leaf only.
        for (j, other) in leaves.iter().enumerate() {
            if j != idx {
                prop_assert!(!proof.verify(other, &root));
            }
        }
    }

    /// Batch ≡ serial for inclusion proofs: every claim is independently left
    /// valid or forged one of six ways, over trees whose depths differ (and
    /// whose odd levels duplicate), and `verify_many` must return exactly
    /// what `verify` does claim by claim.
    #[test]
    fn verify_many_equals_verify(
        specs in proptest::collection::vec((1usize..71, any::<u32>(), 0u8..7, any::<u8>()), 0..101),
    ) {
        let proofs: Vec<(MerkleProof, Hash256, Hash256)> = specs
            .iter()
            .map(|&(n, pick, forgery, salt)| {
                let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&[i as u8, salt])).collect();
                let tree = MerkleTree::from_leaves(leaves.clone());
                let i = pick as usize % n;
                let proof = tree.prove(i).unwrap();
                let (mut index, mut siblings) = (proof.index(), proof.siblings().to_vec());
                let (mut leaf, mut root) = (leaves[i], tree.root());
                let bogus = sha256(&[salt, forgery]);
                match forgery {
                    1 if !siblings.is_empty() => siblings[salt as usize % proof.siblings().len()] = bogus,
                    2 => index ^= 1 << (salt % 8),
                    3 => leaf = bogus,
                    4 => root = bogus,
                    5 => { siblings.pop(); }
                    6 => siblings.extend(vec![bogus; 1 + salt as usize % 3]),
                    _ => {}
                }
                // Private fields: a tampered proof arrives the way a hostile
                // one would, through the decoder.
                let mut bytes = index.encoded();
                bytes.extend(siblings.encoded());
                (decode_all::<MerkleProof>(&bytes).unwrap(), leaf, root)
            })
            .collect();
        let claims: Vec<(&MerkleProof, Hash256, Hash256)> =
            proofs.iter().map(|(p, l, r)| (p, *l, *r)).collect();
        let serial: Vec<bool> = proofs.iter().map(|(p, l, r)| p.verify(l, r)).collect();
        prop_assert_eq!(MerkleProof::verify_many(&claims), serial.clone());
        for (&(.., forgery, _), ok) in specs.iter().zip(&serial) {
            match forgery {
                0 => prop_assert!(*ok, "an untouched proof verifies"),
                3 | 4 => prop_assert!(!*ok, "a wrong leaf or root never does"),
                _ => {}
            }
        }
    }

    #[test]
    fn merkle_root_is_content_sensitive(n in 2usize..32, flip in 0usize..32) {
        let leaves: Vec<Hash256> = (0..n).map(|i| sha256(&[i as u8])).collect();
        let mut tampered = leaves.clone();
        let i = flip % n;
        tampered[i] = sha256(b"tampered");
        prop_assert_ne!(
            MerkleTree::from_leaves(leaves).root(),
            MerkleTree::from_leaves(tampered).root()
        );
    }
}

proptest! {
    // Signatures are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn signatures_verify_and_bind(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut kp = KeyPair::generate(seed, 1);
        let digest = sha256(&msg);
        let sig = kp.sign(&digest).unwrap();
        prop_assert!(kp.public_key().verify(&digest, &sig));
        // Binding: a different message fails.
        let mut other = msg.clone();
        other[0] ^= 1;
        prop_assert!(!kp.public_key().verify(&sha256(&other), &sig));
    }

    /// The key memo on a signature is invisible: whatever one instance has
    /// been asked before, `SigCache::key` is the formula written out over
    /// the bytes — cold, warm and on a clone — and the same instance asked
    /// under a second `(key, message)` pair answers with *that* pair's
    /// value, whichever of the two it saw first.
    #[test]
    fn cache_key_is_the_formula_whatever_the_signature_remembers(
        msg_a in any::<[u8; 32]>(),
        msg_b in any::<[u8; 32]>(),
        other_key in any::<bool>(),
        other_msg in any::<bool>(),
        swap in any::<bool>(),
    ) {
        use dcs_crypto::{PublicKey, SigCache, Signature};

        fn formula(pk: &PublicKey, msg: &Hash256, sig: &Signature) -> Hash256 {
            let mut preimage = vec![0x5A];
            preimage.extend_from_slice(pk.root().as_ref());
            preimage.extend_from_slice(msg.as_ref());
            preimage.extend_from_slice(&sig.index().to_le_bytes());
            preimage.extend_from_slice(sha256(&sig.encoded()).as_ref());
            sha256(&preimage)
        }

        let mut kp = KeyPair::generate([0xD4; 32], 1);
        let stranger = KeyPair::generate([0xE5; 32], 1).public_key();
        let [msg_a, msg_b] = [msg_a, msg_b].map(Hash256::from_bytes);
        let signed = kp.sign(&msg_a).unwrap();
        let mut pairs = [
            (kp.public_key(), msg_a),
            (
                if other_key { stranger } else { kp.public_key() },
                if other_msg { msg_b } else { msg_a },
            ),
        ];
        if swap {
            pairs.swap(0, 1);
        }
        // What a peer holds off the wire: a cold instance.
        let sig = decode_all::<Signature>(&signed.encoded()).unwrap();
        let expected = pairs.map(|(pk, msg)| formula(&pk, &msg, &sig));
        let [(pk1, msg1), (pk2, msg2)] = pairs;
        prop_assert_eq!(SigCache::key(&pk1, &msg1, &sig), expected[0], "cold");
        prop_assert_eq!(SigCache::key(&pk1, &msg1, &sig), expected[0], "warm");
        prop_assert_eq!(SigCache::key(&pk1, &msg1, &sig.clone()), expected[0], "clone");
        prop_assert_eq!(SigCache::key(&pk2, &msg2, &sig), expected[1], "second pair");
        prop_assert_eq!(SigCache::key(&pk2, &msg2, &sig.clone()), expected[1], "its clone");
        prop_assert_eq!(SigCache::key(&pk1, &msg1, &sig), expected[0], "first pair again");
    }

    /// The parallel executor is observationally equal to the serial
    /// `PublicKey::verify` loop over arbitrary mixes of valid signatures,
    /// wrong-message forgeries, and wrong-key forgeries — for every thread
    /// count, and through the caching pipeline on both cold and warm passes.
    #[test]
    fn verify_batch_equals_serial_loop(
        spec in proptest::collection::vec((0u8..2, any::<u8>(), 0u8..3), 0..8)
    ) {
        use dcs_crypto::{Signature, VerifyPipeline, VerifyPool};

        let mut kps = [KeyPair::generate([0xA1; 32], 3), KeyPair::generate([0xB2; 32], 3)];
        let items: Vec<(dcs_crypto::PublicKey, Hash256, Signature)> = spec
            .iter()
            .map(|&(key, msg_byte, mode)| {
                let msg = sha256(&[msg_byte]);
                let (signer, pk_owner) = match mode {
                    // Valid: signed by the key whose pk we attach.
                    0 => (key as usize, key as usize),
                    // Wrong-message forgery: signature over a different digest.
                    1 => (key as usize, key as usize),
                    // Wrong-key forgery: genuine signature, other key's pk.
                    _ => (key as usize, 1 - key as usize),
                };
                let signed = if mode == 1 { sha256(&[msg_byte, 0xFF]) } else { msg };
                let sig = kps[signer].sign(&signed).expect("capacity 8 per key");
                (kps[pk_owner].public_key(), msg, sig)
            })
            .collect();

        let expected: Vec<bool> =
            items.iter().map(|(pk, msg, sig)| pk.verify(msg, sig)).collect();

        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                VerifyPool::new(threads).verify_batch(&items),
                expected.clone(),
                "pool threads={}", threads
            );
            let pipeline = VerifyPipeline::new(threads, 512);
            prop_assert_eq!(
                pipeline.verify_batch(&items),
                expected.clone(),
                "pipeline cold threads={}", threads
            );
            prop_assert_eq!(
                pipeline.verify_batch(&items),
                expected.clone(),
                "pipeline warm threads={}", threads
            );
            let cache = pipeline.stats().cache.expect("cache configured");
            prop_assert_eq!(cache.hits, items.len() as u64, "warm pass all hits");
        }
    }
}

//! Multi-channel ledgers (§5.3, \[37\]): "there is a need to explicitly
//! guarantee that the information will not be stored outside of defined
//! boundaries". Each channel is its own blockchain with its own membership;
//! non-members can neither submit to nor read a channel. Channels stay
//! independent, yet value can move *atomically* between them with a
//! hashlock-based swap (atomic cross-chain swaps, \[31\]).

use crate::commitments::Hashlock;
use dcs_chain::Chain;
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{
    AccountTx, Amount, Block, BlockHeader, ChainConfig, Seal, Transaction, TxPayload,
};
use std::collections::{HashMap, HashSet};

/// Identifies a channel within a [`MultiChannel`] deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// The channel id is unknown.
    NoSuchChannel(u32),
    /// The actor is not a member of the channel (isolation boundary).
    NotAMember(Address),
    /// An HTLC id is unknown or already settled.
    NoSuchLock(u64),
    /// The preimage does not open the hashlock.
    WrongPreimage,
    /// The HTLC timed out (claim) or has not timed out yet (refund).
    TimeoutViolation,
    /// A transfer failed (insufficient funds etc.).
    Transfer(String),
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::NoSuchChannel(id) => write!(f, "no such channel {id}"),
            ChannelError::NotAMember(a) => write!(f, "{a} is not a channel member"),
            ChannelError::NoSuchLock(id) => write!(f, "no such hashlock {id}"),
            ChannelError::WrongPreimage => write!(f, "preimage does not open the lock"),
            ChannelError::TimeoutViolation => write!(f, "timeout constraint violated"),
            ChannelError::Transfer(e) => write!(f, "transfer failed: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A hash-time-locked payment inside one channel.
#[derive(Debug, Clone)]
pub struct Htlc {
    /// Funds source.
    pub payer: Address,
    /// Funds destination on successful claim.
    pub payee: Address,
    /// Locked amount.
    pub amount: Amount,
    /// The hashlock.
    pub lock: Hashlock,
    /// Channel height after which the payer may refund.
    pub timeout_height: u64,
    /// The preimage, once revealed by a claim (public within the channel —
    /// this is what makes the cross-channel swap atomic).
    pub revealed: Option<Vec<u8>>,
}

/// One channel: an ordered ledger plus its membership set.
#[derive(Debug)]
pub struct ChannelLedger {
    /// Human-readable name.
    pub name: String,
    chain: Chain<AccountMachine>,
    members: HashSet<Address>,
    pending: Vec<Transaction>,
    htlcs: HashMap<u64, Htlc>,
    next_htlc: u64,
    nonces: HashMap<Address, u64>,
}

/// The address escrowing HTLC funds inside a channel.
fn escrow_address(channel: u32) -> Address {
    Address::from_hash(&dcs_crypto::sha256(
        &[b"htlc-escrow".as_slice(), &channel.to_le_bytes()].concat(),
    ))
}

impl ChannelLedger {
    fn new(
        name: String,
        channel_id: u32,
        members: Vec<Address>,
        alloc: &[(Address, Amount)],
    ) -> Self {
        let mut config = ChainConfig::hyperledger_like();
        config.chain_id = channel_id + 1000;
        let genesis = dcs_chain::genesis_block(&config);
        let mut machine = AccountMachine::with_alloc(alloc);
        // Permissioned channels meter by policy, not payment (§2.4).
        machine.schedule = config.gas.clone();
        ChannelLedger {
            name,
            chain: Chain::new(genesis, config, machine),
            members: members.into_iter().collect(),
            pending: Vec::new(),
            htlcs: HashMap::new(),
            next_htlc: 0,
            nonces: HashMap::new(),
        }
    }

    /// Channel block height.
    pub fn height(&self) -> u64 {
        self.chain.height()
    }

    /// Is `who` a member?
    pub fn is_member(&self, who: &Address) -> bool {
        self.members.contains(who)
    }

    fn check_member(&self, who: &Address) -> Result<(), ChannelError> {
        if self.is_member(who) {
            Ok(())
        } else {
            Err(ChannelError::NotAMember(*who))
        }
    }

    fn next_nonce(&mut self, who: &Address) -> u64 {
        let e = self.nonces.entry(*who).or_insert(0);
        let n = *e;
        *e += 1;
        n
    }

    fn queue_transfer(&mut self, from: Address, to: Address, amount: Amount) {
        let nonce = self.next_nonce(&from);
        let mut tx = AccountTx::transfer(from, to, amount, nonce);
        tx.gas_limit = 0;
        tx.gas_price = 0;
        self.pending.push(Transaction::Account(tx));
    }

    /// Seals all pending transactions into the next block. Returns receipts
    /// count. Transfers that fail (e.g. insufficient funds) get failed
    /// receipts, visible to members.
    pub fn seal_block(&mut self) -> usize {
        let txs = std::mem::take(&mut self.pending);
        let header = BlockHeader::new(
            self.chain.tip_hash(),
            self.chain.height() + 1,
            self.chain.height() + 1,
            Address::ZERO,
            Seal::Authority {
                view: 0,
                sequence: self.chain.height() + 1,
                votes: 1,
            },
        );
        let block = Block::new(header, txs);
        self.chain
            .import(block)
            .expect("sequencer-built blocks are structurally valid");
        let receipts = self.chain.drain_receipts();
        receipts.last().map_or(0, |(_, r)| r.len())
    }

    fn db(&self) -> &dcs_state::AccountDb {
        &self.chain.machine().db
    }
}

/// A deployment of isolated channels over a shared sequencer.
#[derive(Debug, Default)]
pub struct MultiChannel {
    channels: HashMap<u32, ChannelLedger>,
    next_id: u32,
}

impl MultiChannel {
    /// An empty deployment.
    pub fn new() -> Self {
        MultiChannel::default()
    }

    /// Creates a channel with the given membership and genesis funding.
    pub fn create_channel(
        &mut self,
        name: &str,
        members: Vec<Address>,
        alloc: &[(Address, Amount)],
    ) -> ChannelId {
        let id = self.next_id;
        self.next_id += 1;
        self.channels
            .insert(id, ChannelLedger::new(name.to_string(), id, members, alloc));
        ChannelId(id)
    }

    fn channel(&self, id: ChannelId) -> Result<&ChannelLedger, ChannelError> {
        self.channels
            .get(&id.0)
            .ok_or(ChannelError::NoSuchChannel(id.0))
    }

    fn channel_mut(&mut self, id: ChannelId) -> Result<&mut ChannelLedger, ChannelError> {
        self.channels
            .get_mut(&id.0)
            .ok_or(ChannelError::NoSuchChannel(id.0))
    }

    /// A member reads a balance. Non-members are refused — the privacy
    /// domain boundary.
    ///
    /// # Errors
    ///
    /// [`ChannelError::NotAMember`] for outsiders.
    pub fn balance(
        &self,
        id: ChannelId,
        reader: Address,
        account: Address,
    ) -> Result<Amount, ChannelError> {
        let ch = self.channel(id)?;
        ch.check_member(&reader)?;
        Ok(ch.db().balance(&account))
    }

    /// Locks `amount` from `payer` under a hashlock, payable to `payee` on
    /// preimage reveal, refundable after `timeout_blocks` channel blocks.
    /// The lock transfer is sealed immediately. Returns the HTLC id.
    ///
    /// # Errors
    ///
    /// Membership or funding errors.
    pub fn lock(
        &mut self,
        id: ChannelId,
        payer: Address,
        payee: Address,
        amount: Amount,
        lock: Hashlock,
        timeout_blocks: u64,
    ) -> Result<u64, ChannelError> {
        let escrow = escrow_address(id.0);
        let ch = self.channel_mut(id)?;
        ch.check_member(&payer)?;
        if ch.db().balance(&payer) < amount {
            return Err(ChannelError::Transfer(
                "insufficient balance to lock".into(),
            ));
        }
        ch.queue_transfer(payer, escrow, amount);
        ch.seal_block();
        let htlc_id = ch.next_htlc;
        ch.next_htlc += 1;
        ch.htlcs.insert(
            htlc_id,
            Htlc {
                payer,
                payee,
                amount,
                lock,
                timeout_height: ch.height() + timeout_blocks,
                revealed: None,
            },
        );
        Ok(htlc_id)
    }

    /// Claims an HTLC with the preimage; pays the payee and publishes the
    /// preimage inside the channel.
    ///
    /// # Errors
    ///
    /// Wrong preimage, expired lock, unknown id, or non-member claimer.
    pub fn claim(
        &mut self,
        id: ChannelId,
        claimer: Address,
        htlc_id: u64,
        preimage: &[u8],
    ) -> Result<(), ChannelError> {
        let escrow = escrow_address(id.0);
        let ch = self.channel_mut(id)?;
        ch.check_member(&claimer)?;
        let htlc = ch
            .htlcs
            .get(&htlc_id)
            .ok_or(ChannelError::NoSuchLock(htlc_id))?;
        if htlc.revealed.is_some() {
            return Err(ChannelError::NoSuchLock(htlc_id));
        }
        if !htlc.lock.unlocks(preimage) {
            return Err(ChannelError::WrongPreimage);
        }
        if ch.height() > htlc.timeout_height {
            return Err(ChannelError::TimeoutViolation);
        }
        let (payee, amount) = (htlc.payee, htlc.amount);
        ch.queue_transfer(escrow, payee, amount);
        // Publish the preimage on-chain (a data transaction) so the
        // counterparty in the other channel learns it.
        let nonce = ch.next_nonce(&payee);
        let mut reveal = AccountTx::transfer(payee, Address::ZERO, 0, nonce);
        reveal.gas_limit = 0;
        reveal.gas_price = 0;
        reveal.payload = TxPayload::Data(preimage.to_vec());
        ch.pending.push(Transaction::Account(reveal));
        ch.seal_block();
        ch.htlcs.get_mut(&htlc_id).expect("present above").revealed = Some(preimage.to_vec());
        Ok(())
    }

    /// Refunds an expired HTLC back to the payer.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TimeoutViolation`] before expiry; unknown id.
    pub fn refund(&mut self, id: ChannelId, htlc_id: u64) -> Result<(), ChannelError> {
        let escrow = escrow_address(id.0);
        let ch = self.channel_mut(id)?;
        let htlc = ch
            .htlcs
            .get(&htlc_id)
            .ok_or(ChannelError::NoSuchLock(htlc_id))?;
        if htlc.revealed.is_some() {
            return Err(ChannelError::NoSuchLock(htlc_id));
        }
        if ch.height() <= htlc.timeout_height {
            return Err(ChannelError::TimeoutViolation);
        }
        let (payer, amount) = (htlc.payer, htlc.amount);
        ch.queue_transfer(escrow, payer, amount);
        ch.seal_block();
        ch.htlcs.remove(&htlc_id);
        Ok(())
    }

    /// The revealed preimage of an HTLC, readable by channel members.
    ///
    /// # Errors
    ///
    /// Membership or unknown-lock errors.
    pub fn revealed_preimage(
        &self,
        id: ChannelId,
        reader: Address,
        htlc_id: u64,
    ) -> Result<Option<Vec<u8>>, ChannelError> {
        let ch = self.channel(id)?;
        ch.check_member(&reader)?;
        Ok(ch.htlcs.get(&htlc_id).and_then(|h| h.revealed.clone()))
    }

    /// Seals empty blocks to advance a channel's height (time passing).
    pub fn advance_blocks(&mut self, id: ChannelId, blocks: u64) -> Result<(), ChannelError> {
        let ch = self.channel_mut(id)?;
        for _ in 0..blocks {
            ch.seal_block();
        }
        Ok(())
    }

    /// State roots per channel — each channel's consistency is separately
    /// verifiable even though their contents are isolated.
    pub fn state_roots(&self) -> Vec<(ChannelId, Hash256)> {
        let mut v: Vec<_> = self
            .channels
            .iter()
            .map(|(&id, ch)| (ChannelId(id), ch.chain.machine().db.root()))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alice() -> Address {
        Address::from_index(1)
    }
    fn bob() -> Address {
        Address::from_index(2)
    }
    fn eve() -> Address {
        Address::from_index(66)
    }

    fn two_channels() -> (MultiChannel, ChannelId, ChannelId) {
        let mut mc = MultiChannel::new();
        // Channel A: alice-rich; Channel B: bob-rich. Both are members of
        // both channels (they trade across them); eve is in neither.
        let a = mc.create_channel("trade-a", vec![alice(), bob()], &[(alice(), 10_000)]);
        let b = mc.create_channel("trade-b", vec![alice(), bob()], &[(bob(), 10_000)]);
        (mc, a, b)
    }

    #[test]
    fn members_transact_outsiders_cannot() {
        let (mut mc, a, _) = two_channels();
        let lock = Hashlock::from_secret(b"s");
        mc.lock(a, alice(), bob(), 100, lock, 5).unwrap();
        assert_eq!(mc.balance(a, bob(), alice()).unwrap(), 9_900);

        assert_eq!(
            mc.lock(a, eve(), bob(), 1, lock, 5),
            Err(ChannelError::NotAMember(eve()))
        );
        assert_eq!(
            mc.balance(a, eve(), bob()),
            Err(ChannelError::NotAMember(eve()))
        );
    }

    #[test]
    fn channels_are_isolated() {
        let (mut mc, a, b) = two_channels();
        mc.lock(a, alice(), bob(), 500, Hashlock::from_secret(b"s"), 5)
            .unwrap();
        // Nothing moved in channel B.
        assert_eq!(mc.balance(b, bob(), bob()).unwrap(), 10_000);
        assert_eq!(mc.balance(b, bob(), alice()).unwrap(), 0);
        // Roots evolve independently.
        let roots = mc.state_roots();
        assert_eq!(roots.len(), 2);
        assert_ne!(roots[0].1, roots[1].1);
    }

    #[test]
    fn atomic_swap_happy_path() {
        // Alice pays Bob 1000 in channel A; Bob pays Alice 800 in channel B;
        // both or neither (E14).
        let (mut mc, a, b) = two_channels();
        let secret = b"swap-secret-xyz";
        let lock = Hashlock::from_secret(secret);

        // 1. Alice locks in A (she knows the secret).
        let htlc_a = mc.lock(a, alice(), bob(), 1_000, lock, 10).unwrap();
        // 2. Bob sees the lock and mirrors it in B with the same hash.
        let htlc_b = mc.lock(b, bob(), alice(), 800, lock, 5).unwrap();
        // 3. Alice claims in B, revealing the secret there.
        mc.claim(b, alice(), htlc_b, secret).unwrap();
        assert_eq!(mc.balance(b, alice(), alice()).unwrap(), 800);
        // 4. Bob reads the preimage from channel B and claims in A.
        let revealed = mc.revealed_preimage(b, bob(), htlc_b).unwrap().unwrap();
        mc.claim(a, bob(), htlc_a, &revealed).unwrap();
        assert_eq!(mc.balance(a, bob(), bob()).unwrap(), 1_000);
        // Escrows are empty.
        assert_eq!(mc.balance(a, alice(), escrow_address(a.0)).unwrap(), 0);
        assert_eq!(mc.balance(b, bob(), escrow_address(b.0)).unwrap(), 0);
    }

    #[test]
    fn swap_aborts_safely_via_refund() {
        // Bob never claims; after the timeout both sides refund — neither
        // loses funds.
        let (mut mc, a, _) = two_channels();
        let lock = Hashlock::from_secret(b"never-revealed");
        let htlc = mc.lock(a, alice(), bob(), 1_000, lock, 3).unwrap();
        assert_eq!(mc.balance(a, alice(), alice()).unwrap(), 9_000);

        // Too early to refund.
        assert_eq!(mc.refund(a, htlc), Err(ChannelError::TimeoutViolation));
        mc.advance_blocks(a, 4).unwrap();
        mc.refund(a, htlc).unwrap();
        assert_eq!(mc.balance(a, alice(), alice()).unwrap(), 10_000);
        // Claim after refund is impossible.
        assert_eq!(
            mc.claim(a, bob(), htlc, b"never-revealed"),
            Err(ChannelError::NoSuchLock(htlc))
        );
    }

    #[test]
    fn wrong_preimage_rejected() {
        let (mut mc, a, _) = two_channels();
        let lock = Hashlock::from_secret(b"right");
        let htlc = mc.lock(a, alice(), bob(), 100, lock, 10).unwrap();
        assert_eq!(
            mc.claim(a, bob(), htlc, b"wrong"),
            Err(ChannelError::WrongPreimage)
        );
    }

    #[test]
    fn expired_claim_rejected() {
        let (mut mc, a, _) = two_channels();
        let lock = Hashlock::from_secret(b"s");
        let htlc = mc.lock(a, alice(), bob(), 100, lock, 2).unwrap();
        mc.advance_blocks(a, 5).unwrap();
        assert_eq!(
            mc.claim(a, bob(), htlc, b"s"),
            Err(ChannelError::TimeoutViolation)
        );
    }

    #[test]
    fn lock_requires_funds() {
        let (mut mc, a, _) = two_channels();
        let lock = Hashlock::from_secret(b"s");
        // Bob has no funds in channel A.
        assert!(matches!(
            mc.lock(a, bob(), alice(), 1, lock, 5),
            Err(ChannelError::Transfer(_))
        ));
    }
}

//! A round-based mixer (Chaumian mix / CoinJoin-style): participants
//! deposit equal-denomination coins; once a round fills (or times out), the
//! mixer shuffles and pays out to fresh addresses. An observer watching the
//! chain can no longer link deposits to withdrawals beyond guessing within
//! the round — the *anonymity set*.
//!
//! The module also quantifies the privacy/latency trade-off the paper
//! flags: larger rounds → larger anonymity sets → longer waits (E9).

use dcs_crypto::Address;
use dcs_sim::{Rng, SimDuration, SimTime};

/// Mixer parameters.
#[derive(Debug, Clone, Copy)]
pub struct MixerConfig {
    /// Participants per round (the anonymity set size).
    pub round_size: usize,
    /// Cut a round at this age even if not full.
    pub round_timeout: SimDuration,
    /// The single denomination mixed (equal amounts are what make outputs
    /// indistinguishable).
    pub denomination: u64,
}

impl Default for MixerConfig {
    fn default() -> Self {
        MixerConfig {
            round_size: 16,
            round_timeout: SimDuration::from_secs(600),
            denomination: 1_000,
        }
    }
}

/// A deposit waiting to be mixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deposit {
    /// Who paid in.
    pub from: Address,
    /// Where the mixed coins should go.
    pub payout_to: Address,
    /// When the deposit arrived.
    pub at: SimTime,
}

/// One completed mixing round.
#[derive(Debug, Clone)]
pub struct MixRound {
    /// Deposits, in arrival order (what the chain observer sees going in).
    pub deposits: Vec<Deposit>,
    /// Payout addresses, in shuffled order (what the observer sees coming
    /// out).
    pub payouts: Vec<Address>,
    /// When the round settled.
    pub settled_at: SimTime,
}

impl MixRound {
    /// Mean deposit→payout delay — the latency price of privacy.
    pub fn mean_delay(&self) -> SimDuration {
        if self.deposits.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self
            .deposits
            .iter()
            .map(|d| self.settled_at.saturating_since(d.at))
            .sum();
        total / self.deposits.len() as u64
    }
}

/// The mixer service.
#[derive(Debug)]
pub struct Mixer {
    config: MixerConfig,
    pending: Vec<Deposit>,
    round_opened: Option<SimTime>,
    completed: Vec<MixRound>,
    rng: Rng,
}

impl Mixer {
    /// Creates a mixer; `seed` drives the payout shuffle.
    pub fn new(config: MixerConfig, seed: u64) -> Self {
        Mixer {
            config,
            pending: Vec::new(),
            round_opened: None,
            completed: Vec::new(),
            rng: Rng::seed_from(seed),
        }
    }

    /// Deposits a coin for mixing. Returns the settled round if this
    /// deposit filled it.
    pub fn deposit(
        &mut self,
        from: Address,
        payout_to: Address,
        now: SimTime,
    ) -> Option<&MixRound> {
        if self.pending.is_empty() {
            self.round_opened = Some(now);
        }
        self.pending.push(Deposit {
            from,
            payout_to,
            at: now,
        });
        if self.pending.len() >= self.config.round_size {
            return self.settle(now);
        }
        None
    }

    /// Advances time: settles the open round if it has timed out (with
    /// however many deposits it holds).
    pub fn tick(&mut self, now: SimTime) -> Option<&MixRound> {
        let opened = self.round_opened?;
        if now.saturating_since(opened) >= self.config.round_timeout && !self.pending.is_empty() {
            return self.settle(now);
        }
        None
    }

    fn settle(&mut self, now: SimTime) -> Option<&MixRound> {
        let deposits = std::mem::take(&mut self.pending);
        self.round_opened = None;
        let mut payouts: Vec<Address> = deposits.iter().map(|d| d.payout_to).collect();
        self.rng.shuffle(&mut payouts);
        self.completed.push(MixRound {
            deposits,
            payouts,
            settled_at: now,
        });
        self.completed.last()
    }

    /// All settled rounds.
    pub fn rounds(&self) -> &[MixRound] {
        &self.completed
    }
}

/// The linkage probability after chaining `rounds` mixes of size `set`:
/// each hop multiplies the observer's uncertainty.
pub fn chained_linkage_probability(set: usize, rounds: u32) -> f64 {
    if set == 0 {
        return 1.0;
    }
    (1.0 / set as f64).powi(rounds as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn cfg(size: usize) -> MixerConfig {
        MixerConfig {
            round_size: size,
            ..MixerConfig::default()
        }
    }

    #[test]
    fn round_fills_and_settles() {
        let mut mixer = Mixer::new(cfg(4), 1);
        for i in 0..3 {
            assert!(mixer
                .deposit(Address::from_index(i), Address::from_index(100 + i), t(i))
                .is_none());
        }
        let round = mixer
            .deposit(Address::from_index(3), Address::from_index(103), t(3))
            .unwrap();
        assert_eq!(round.deposits.len(), 4);
    }

    #[test]
    fn payouts_are_a_permutation_of_requested_addresses() {
        let mut mixer = Mixer::new(cfg(8), 2);
        for i in 0..8 {
            mixer.deposit(Address::from_index(i), Address::from_index(100 + i), t(i));
        }
        let round = &mixer.rounds()[0];
        let mut expected: Vec<Address> = (0..8).map(|i| Address::from_index(100 + i)).collect();
        let mut got = round.payouts.clone();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        // With 8 elements and a random shuffle, identity order is unlikely;
        // assert the shuffle actually did something under this seed.
        assert_ne!(
            round.payouts,
            (0..8)
                .map(|i| Address::from_index(100 + i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn timeout_settles_partial_round() {
        let mut mixer = Mixer::new(
            MixerConfig {
                round_size: 100,
                round_timeout: SimDuration::from_secs(60),
                denomination: 1,
            },
            3,
        );
        mixer.deposit(Address::from_index(1), Address::from_index(2), t(0));
        mixer.deposit(Address::from_index(3), Address::from_index(4), t(10));
        assert!(mixer.tick(t(30)).is_none(), "not yet");
        let round = mixer.tick(t(61)).expect("timed out");
        assert_eq!(round.deposits.len(), 2);
    }

    #[test]
    fn latency_grows_with_round_size() {
        // Deposits arrive at 1/s; bigger rounds mean earlier depositors
        // wait longer — the E9 trade-off in miniature.
        let delay_for = |size: u64| {
            let mut mixer = Mixer::new(cfg(size as usize), 4);
            for i in 0..size {
                mixer.deposit(Address::from_index(i), Address::from_index(100 + i), t(i));
            }
            mixer.rounds()[0].mean_delay()
        };
        assert!(delay_for(32) > delay_for(8));
    }

    #[test]
    fn chained_mixing_compounds_privacy() {
        assert_eq!(chained_linkage_probability(10, 1), 0.1);
        assert!((chained_linkage_probability(10, 3) - 0.001).abs() < 1e-12);
        assert_eq!(chained_linkage_probability(0, 2), 1.0);
    }
}

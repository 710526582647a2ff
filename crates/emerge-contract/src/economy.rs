//! The holder economy: bond sizes, reveal rewards, and the rational
//! adversary that weighs bribes against them.
//!
//! Under contract enforcement (Li & Palanisamy 2019) a holder's incentive
//! problem is explicit: reveal on time and collect `bond + reveal_reward`
//! back, or deviate — withhold the share, or reveal it early to an
//! adversary — and forfeit the bond to the contract's slashing rule. An
//! adversary attacks by *bribing*: it offers a payment for withholding
//! (drop attack) or for early disclosure (release-ahead attack). A
//! rational adversary-controlled holder deviates only when the bribe
//! exceeds what the deviation forfeits; that break-even point is what
//! makes bond sizing a security parameter rather than a constant.

/// Token-denominated parameters of the release economy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EconomyParams {
    /// Free tokens every holder account starts with.
    pub holder_funds: u64,
    /// Free tokens the depositor (sender) account starts with.
    pub sender_funds: u64,
    /// The bond a holder escrows when registering for a deposit.
    pub bond: u64,
    /// The reward paid (from the depositor's escrowed reward pot) for a
    /// correct in-window reveal.
    pub reveal_reward: u64,
}

impl Default for EconomyParams {
    fn default() -> Self {
        EconomyParams {
            holder_funds: 1_000,
            sender_funds: 100_000,
            bond: 100,
            reveal_reward: 10,
        }
    }
}

impl EconomyParams {
    /// What a holder forfeits by deviating from the honest reveal: the
    /// slashed bond plus the forgone reveal reward.
    pub fn deviation_cost(&self) -> u64 {
        self.bond + self.reveal_reward
    }
}

/// What a holder does with its share when the reveal window opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevealAction {
    /// Submit the share inside the reveal window (the honest action).
    OnTime,
    /// Never submit the share (the contract-era drop attack).
    Withhold,
    /// Submit the share before the reveal window opens (the contract-era
    /// release-ahead attack; the share becomes public early).
    Early,
}

/// Behaviour of adversary-controlled holders.
///
/// Honest holders always play [`RevealAction::OnTime`]; a strategy only
/// governs what a *malicious* tenant does with the share it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HolderStrategy {
    /// Malicious holders follow the protocol (a passive adversary).
    Compliant,
    /// Malicious holders always withhold, whatever it costs them.
    AlwaysWithhold,
    /// Malicious holders always reveal early, whatever it costs them.
    AlwaysRevealEarly,
    /// Malicious holders deviate only when the adversary's bribe exceeds
    /// the deviation cost, picking the more profitable deviation on a tie
    /// of eligibility (early reveal wins ties — it additionally keeps the
    /// reveal traffic, making it strictly cheaper to execute).
    Rational {
        /// Bribe offered for withholding a share past the deadline.
        withhold_bribe: u64,
        /// Bribe offered for disclosing a share before the window.
        early_reveal_bribe: u64,
    },
}

impl HolderStrategy {
    /// The action a malicious holder under this strategy takes, given the
    /// economy it is embedded in.
    pub fn decide(&self, economy: &EconomyParams) -> RevealAction {
        match *self {
            HolderStrategy::Compliant => RevealAction::OnTime,
            HolderStrategy::AlwaysWithhold => RevealAction::Withhold,
            HolderStrategy::AlwaysRevealEarly => RevealAction::Early,
            HolderStrategy::Rational {
                withhold_bribe,
                early_reveal_bribe,
            } => {
                let cost = economy.deviation_cost();
                let early_pays = early_reveal_bribe > cost;
                let withhold_pays = withhold_bribe > cost;
                match (early_pays, withhold_pays) {
                    (true, true) => {
                        if withhold_bribe > early_reveal_bribe {
                            RevealAction::Withhold
                        } else {
                            RevealAction::Early
                        }
                    }
                    (true, false) => RevealAction::Early,
                    (false, true) => RevealAction::Withhold,
                    (false, false) => RevealAction::OnTime,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rational_holders_need_bribes_above_the_deviation_cost() {
        let economy = EconomyParams::default();
        let cost = economy.deviation_cost();
        assert_eq!(cost, 110);

        let underpaid = HolderStrategy::Rational {
            withhold_bribe: cost,
            early_reveal_bribe: cost,
        };
        assert_eq!(underpaid.decide(&economy), RevealAction::OnTime);

        let bribed = HolderStrategy::Rational {
            withhold_bribe: cost + 1,
            early_reveal_bribe: 0,
        };
        assert_eq!(bribed.decide(&economy), RevealAction::Withhold);

        let leaker = HolderStrategy::Rational {
            withhold_bribe: 0,
            early_reveal_bribe: cost + 1,
        };
        assert_eq!(leaker.decide(&economy), RevealAction::Early);
    }

    #[test]
    fn rational_holders_take_the_larger_profitable_bribe() {
        let economy = EconomyParams::default();
        let cost = economy.deviation_cost();
        let both = HolderStrategy::Rational {
            withhold_bribe: cost + 50,
            early_reveal_bribe: cost + 10,
        };
        assert_eq!(both.decide(&economy), RevealAction::Withhold);
        let tie = HolderStrategy::Rational {
            withhold_bribe: cost + 10,
            early_reveal_bribe: cost + 10,
        };
        assert_eq!(tie.decide(&economy), RevealAction::Early);
    }

    #[test]
    fn raising_the_bond_prices_out_an_attack() {
        // The economic lever of the contract backend: the same bribe that
        // buys a deviation under a small bond fails under a larger one.
        let bribe = HolderStrategy::Rational {
            withhold_bribe: 150,
            early_reveal_bribe: 0,
        };
        let cheap = EconomyParams {
            bond: 100,
            ..EconomyParams::default()
        };
        let expensive = EconomyParams {
            bond: 200,
            ..EconomyParams::default()
        };
        assert_eq!(bribe.decide(&cheap), RevealAction::Withhold);
        assert_eq!(bribe.decide(&expensive), RevealAction::OnTime);
    }

    #[test]
    fn unconditional_strategies_ignore_the_economy() {
        let economy = EconomyParams {
            bond: u64::MAX / 2,
            ..EconomyParams::default()
        };
        assert_eq!(
            HolderStrategy::AlwaysWithhold.decide(&economy),
            RevealAction::Withhold
        );
        assert_eq!(
            HolderStrategy::AlwaysRevealEarly.decide(&economy),
            RevealAction::Early
        );
        assert_eq!(
            HolderStrategy::Compliant.decide(&economy),
            RevealAction::OnTime
        );
    }
}

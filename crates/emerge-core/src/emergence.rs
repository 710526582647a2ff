//! High-level API: the full self-emerging data pipeline of Figure 1.
//!
//! A [`SelfEmergingSystem`] owns the DHT overlay and the cloud. The sender
//! calls [`SelfEmergingSystem::send`] at `ts`: the message is encrypted
//! with a fresh secret key, the ciphertext goes to the cloud, and the key
//! is dispatched into the DHT along the chosen scheme's routing paths.
//! After `tr`, [`SelfEmergingSystem::receive`] collects the emerged key
//! from the terminal holders and decrypts the cloud ciphertext.
//!
//! ```
//! use emerge_core::emergence::{SelfEmergingSystem, SendRequest};
//! use emerge_core::config::SchemeKind;
//! use emerge_core::substrate::OverlayConfig;
//! use emerge_sim::time::SimDuration;
//!
//! # fn main() -> Result<(), emerge_core::error::EmergeError> {
//! let mut system = SelfEmergingSystem::new(
//!     OverlayConfig { n_nodes: 128, ..OverlayConfig::default() },
//!     4242,
//! );
//! let mut handle = system.send(SendRequest {
//!     message: b"exam questions".to_vec(),
//!     emerging_period: SimDuration::from_ticks(3_000),
//!     scheme: SchemeKind::Joint,
//!     target_resilience: 0.99,
//!     expected_malicious_rate: 0.1,
//! })?;
//!
//! // Too early: the key has not emerged yet.
//! assert!(system.receive(&handle).is_err());
//!
//! system.run_to_release(&mut handle);
//! let message = system.receive(&handle)?;
//! assert_eq!(message, b"exam questions");
//! # Ok(())
//! # }
//! ```

use crate::analysis;
use crate::config::{SchemeKind, SchemeParams};
use crate::error::EmergeError;
use crate::montecarlo::TrialWorkspace;
use crate::path::{construct_paths, PathPlan};
use crate::protocol::{AttackMode, RunConfig, RunReport};
use crate::substrate::{AnalyticSubstrate, HolderSubstrate, OverlayConfig};
use emerge_cloud::{AccessToken, BlobId, BlobStore};
use emerge_crypto::aead;
use emerge_crypto::keys::SymmetricKey;
use emerge_sim::rng::SeedSource;
use emerge_sim::time::{SimDuration, SimTime};
use rand::RngCore;

/// What the sender asks for.
#[derive(Debug, Clone)]
pub struct SendRequest {
    /// The plaintext message to release in the future.
    pub message: Vec<u8>,
    /// The emerging period `T = tr − ts`.
    pub emerging_period: SimDuration,
    /// Which routing scheme protects the key.
    pub scheme: SchemeKind,
    /// Target resilience `R*` for the parameter solver.
    pub target_resilience: f64,
    /// The sender's estimate of the malicious node rate `p`.
    pub expected_malicious_rate: f64,
}

/// A pending self-emerging message.
#[derive(Debug)]
pub struct SendHandle {
    /// The cloud blob holding the ciphertext.
    pub blob: BlobId,
    /// Release time `tr`.
    pub release_time: SimTime,
    /// The resolved scheme parameters.
    pub params: SchemeParams,
    /// The holder grid used.
    pub plan: PathPlan,
    /// Protocol report (populated by `run_to_release`).
    pub report: Option<RunReport>,
    token: AccessToken,
    nonce: [u8; 12],
    /// Retained only to drive the deterministic protocol simulation; a
    /// real sender forgets this after `ts`.
    sender_seed: SymmetricKey,
    attack: AttackMode,
}

/// The assembled system: DHT substrate + cloud.
///
/// Generic over the [`HolderSubstrate`] carrying the key packages; the
/// default is the [`AnalyticSubstrate`] DHT world. Use [`with_substrate`]
/// for any other backend, such as the fault plane's `FaultySubstrate`.
///
/// [`with_substrate`]: SelfEmergingSystem::with_substrate
#[derive(Debug)]
pub struct SelfEmergingSystem<S: HolderSubstrate = AnalyticSubstrate> {
    substrate: S,
    cloud: BlobStore,
    seeds: SeedSource,
    sends: u64,
    attack: AttackMode,
}

impl SelfEmergingSystem<AnalyticSubstrate> {
    /// Builds a system over a fresh DHT world.
    pub fn new(config: OverlayConfig, seed: u64) -> Self {
        Self::with_substrate(AnalyticSubstrate::build(config, seed), seed)
    }
}

impl<S: HolderSubstrate> SelfEmergingSystem<S> {
    /// Assembles a system over an existing substrate. `seed` drives the
    /// sender-side randomness (message keys, nonces, tokens) and should
    /// match the substrate's build seed for full-run reproducibility.
    pub fn with_substrate(substrate: S, seed: u64) -> Self {
        SelfEmergingSystem {
            substrate,
            cloud: BlobStore::new(),
            seeds: SeedSource::new(seed),
            sends: 0,
            attack: AttackMode::Passive,
        }
    }

    /// Sets the behaviour of malicious substrate nodes for subsequent runs.
    pub fn set_attack_mode(&mut self, attack: AttackMode) {
        self.attack = attack;
    }

    /// Read access to the substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Read access to the cloud.
    pub fn cloud(&self) -> &BlobStore {
        &self.cloud
    }

    /// Sends a message to the future: encrypts, uploads to the cloud, and
    /// dispatches the key into the DHT.
    ///
    /// # Errors
    ///
    /// Fails when the solver's structure does not fit the overlay
    /// ([`EmergeError::InsufficientNodes`]) or parameters are invalid.
    pub fn send(&mut self, request: SendRequest) -> Result<SendHandle, EmergeError> {
        if request.message.is_empty() {
            return Err(EmergeError::InvalidParameters(
                "refusing to send an empty message".into(),
            ));
        }
        let p = request.expected_malicious_rate;
        if !(0.0..=1.0).contains(&p) {
            return Err(EmergeError::InvalidParameters(format!(
                "malicious rate estimate {p} out of [0,1]"
            )));
        }
        let budget = self.substrate.n_nodes();
        let params = match request.scheme {
            SchemeKind::Central => SchemeParams::Central,
            SchemeKind::Disjoint => {
                analysis::solve_disjoint(p, request.target_resilience, budget).params
            }
            SchemeKind::Joint => analysis::solve_joint(p, request.target_resilience, budget).params,
            SchemeKind::Share => {
                // Without a better estimate, assume the emerging period
                // spans one mean node lifetime for threshold selection.
                // Wire-level sharing runs over GF(256), so cap the grid at
                // 255 rows: re-run Algorithm 1 with the reduced budget.
                let sol = analysis::solve_share(p, request.target_resilience, budget, 1.0);
                match sol.params {
                    SchemeParams::Share { k, l, n, .. } if n > 255 => {
                        let capped_budget = 255 * l;
                        let a = analysis::algorithm1(k.min(255), l, capped_budget, 1.0, p);
                        SchemeParams::Share {
                            k: k.min(255),
                            l,
                            n: a.n,
                            m: a.m,
                        }
                    }
                    other => other,
                }
            }
        };
        params.validate()?;

        // Fresh randomness per send, deterministic per system seed. The
        // message secret key derives from the sender seed so the key that
        // emerges from the DHT is the key the ciphertext was sealed with.
        let mut rng = self.seeds.stream_n("send", self.sends);
        self.sends += 1;
        let sender_seed = SymmetricKey::generate(&mut rng);
        let secret_key = sender_seed.derive(b"message-secret-key");
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let mut token_bytes = vec![0u8; 32];
        rng.fill_bytes(&mut token_bytes);
        let token = AccessToken::from_bytes(token_bytes);

        // Encrypt and upload.
        let ciphertext = aead::seal(&secret_key, &nonce, &request.message, b"self-emerging-v1");
        let blob = self.cloud.put(ciphertext, &[token.fingerprint()]);

        // Plan the routing paths.
        let plan = construct_paths(&self.substrate, &params, &sender_seed)?;

        Ok(SendHandle {
            blob,
            release_time: self.substrate.now() + request.emerging_period,
            params,
            plan,
            report: None,
            token,
            nonce,
            sender_seed,
            attack: self.attack,
        })
    }

    /// Drives the DHT protocol to the release time, populating
    /// `handle.report` and advancing the overlay clock to `tr`.
    pub fn run_to_release(&mut self, handle: &mut SendHandle) {
        let ts = self.substrate.now();
        let emerging_period = handle.release_time.since(ts);
        let config = RunConfig {
            ts,
            emerging_period,
            attack: handle.attack,
        };
        let report = TrialWorkspace::new()
            .send_along(
                &mut self.substrate,
                &handle.plan,
                &handle.params,
                handle.sender_seed.clone(),
                &config,
            )
            // LINT-WAIVER(panic): the plan was built from these parameters, so packaging and execution cannot fail
            .expect("protocol execution is infallible for planned parameters")
            .to_report();
        handle.report = Some(report);
        self.substrate.advance_to(handle.release_time);
    }

    /// Fetches and decrypts the message after release.
    ///
    /// # Errors
    ///
    /// * [`EmergeError::NotYetReleased`] before `tr` (the DHT has not
    ///   emitted the key).
    /// * [`EmergeError::KeyLost`] if the protocol run ended without the
    ///   key emerging (drop attack, churn starvation).
    /// * [`EmergeError::Cloud`] / [`EmergeError::Crypto`] on fetch or
    ///   decryption failures.
    pub fn receive(&mut self, handle: &SendHandle) -> Result<Vec<u8>, EmergeError> {
        let now = self.substrate.now();
        let Some(report) = &handle.report else {
            return Err(EmergeError::NotYetReleased {
                remaining_ticks: handle.release_time.since(now).ticks(),
            });
        };
        let (released_at, key_bytes) =
            report
                .released
                .as_ref()
                .ok_or_else(|| EmergeError::KeyLost {
                    reason: report
                        .failure
                        .clone()
                        .unwrap_or_else(|| "unknown loss".into()),
                })?;
        if now < *released_at {
            return Err(EmergeError::NotYetReleased {
                remaining_ticks: released_at.since(now).ticks(),
            });
        }

        let mut kb = [0u8; 32];
        kb.copy_from_slice(&key_bytes[..32]);
        let key = SymmetricKey::from_bytes(kb);
        let ciphertext = self
            .cloud
            .fetch(&handle.blob, &handle.token)
            .map_err(|e| EmergeError::Cloud(e.to_string()))?;
        let plain = aead::open(&key, &handle.nonce, &ciphertext, b"self-emerging-v1")?;
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(n: usize, p: f64, seed: u64) -> SelfEmergingSystem {
        SelfEmergingSystem::new(
            OverlayConfig {
                n_nodes: n,
                malicious_fraction: p,
                ..OverlayConfig::default()
            },
            seed,
        )
    }

    fn request(scheme: SchemeKind) -> SendRequest {
        SendRequest {
            message: b"meet me at the usual place".to_vec(),
            emerging_period: SimDuration::from_ticks(6_000),
            scheme,
            target_resilience: 0.99,
            expected_malicious_rate: 0.1,
        }
    }

    #[test]
    fn full_pipeline_all_schemes() {
        for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
            let mut sys = system(256, 0.0, 100 + i as u64);
            let mut handle = sys.send(request(scheme)).expect("send succeeds");
            sys.run_to_release(&mut handle);
            let msg = sys
                .receive(&handle)
                .unwrap_or_else(|e| panic!("{scheme}: receive failed: {e}"));
            assert_eq!(msg, b"meet me at the usual place", "{scheme}");
        }
    }

    #[test]
    fn early_receive_is_rejected() {
        let mut sys = system(128, 0.0, 1);
        let handle = sys.send(request(SchemeKind::Joint)).unwrap();
        match sys.receive(&handle) {
            Err(EmergeError::NotYetReleased { remaining_ticks }) => {
                assert_eq!(remaining_ticks, 6_000);
            }
            other => panic!("expected NotYetReleased, got {other:?}"),
        }
    }

    #[test]
    fn drop_attack_loses_the_message() {
        let mut sys = system(64, 1.0, 2);
        sys.set_attack_mode(AttackMode::Drop);
        let mut handle = sys.send(request(SchemeKind::Central)).unwrap();
        sys.run_to_release(&mut handle);
        assert!(matches!(
            sys.receive(&handle),
            Err(EmergeError::KeyLost { .. })
        ));
    }

    #[test]
    fn release_ahead_attack_reconstructs_before_tr() {
        let mut sys = system(64, 1.0, 3);
        sys.set_attack_mode(AttackMode::ReleaseAhead);
        let mut handle = sys.send(request(SchemeKind::Joint)).unwrap();
        sys.run_to_release(&mut handle);
        let report = handle.report.as_ref().unwrap();
        let (at, key) = report
            .adversary_reconstruction
            .as_ref()
            .expect("all-malicious overlay must reconstruct");
        assert!(*at < handle.release_time);
        // The stolen key really decrypts the cloud blob.
        let mut kb = [0u8; 32];
        kb.copy_from_slice(&key[..32]);
        let stolen = SymmetricKey::from_bytes(kb);
        let ct = sys
            .cloud
            .fetch(&handle.blob, &handle.token)
            .expect("fetch with legitimate token for the test");
        let plain = aead::open(&stolen, &handle.nonce, &ct, b"self-emerging-v1").unwrap();
        assert_eq!(plain, b"meet me at the usual place");
    }

    #[test]
    fn empty_message_rejected() {
        let mut sys = system(64, 0.0, 4);
        let mut req = request(SchemeKind::Central);
        req.message.clear();
        assert!(matches!(
            sys.send(req),
            Err(EmergeError::InvalidParameters(_))
        ));
    }

    #[test]
    fn bad_rate_estimate_rejected() {
        let mut sys = system(64, 0.0, 5);
        let mut req = request(SchemeKind::Central);
        req.expected_malicious_rate = 1.5;
        assert!(sys.send(req).is_err());
    }

    #[test]
    fn solver_shapes_the_structure() {
        let mut sys = system(512, 0.0, 6);
        let handle = sys.send(request(SchemeKind::Joint)).unwrap();
        let (k, l) = handle.params.grid().unwrap();
        assert!(k >= 2 && l >= 2, "p=0.1 at R*=0.99 needs real redundancy");
        assert!(handle.params.node_cost() <= 512);
    }

    #[test]
    fn honest_majority_share_send_survives_attacks() {
        let mut sys = system(400, 0.05, 7);
        sys.set_attack_mode(AttackMode::Drop);
        let mut handle = sys.send(request(SchemeKind::Share)).unwrap();
        sys.run_to_release(&mut handle);
        assert_eq!(
            sys.receive(&handle).expect("5% droppers must not win"),
            b"meet me at the usual place"
        );
    }
}

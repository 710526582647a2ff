//! Which substrate calls the Monte-Carlo trials make.
//!
//! Every trial resolves holders, reads churn timelines and samples slots,
//! but it never stores a value in the DHT or looks one up: the protocol
//! hands packages to holders directly. That is why the experiments need
//! no routed lookups — XOR-closest resolution, the malicious marking and
//! the churn timelines decide every outcome. A call-counting wrapper pins
//! the fact for every scheme under every attack, and for a faulted cell,
//! so a protocol change that starts doing DHT lookups fails here first.

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use self_emerging_data::core::config::{SchemeKind, SchemeParams};
use self_emerging_data::core::faults::run_faulted_trials;
use self_emerging_data::core::montecarlo::{run_protocol_trials, ProtocolTrialSpec};
use self_emerging_data::core::protocol::AttackMode;
use self_emerging_data::core::substrate::{AnalyticSubstrate, HolderSubstrate, OverlayConfig};
use self_emerging_data::dht::id::NodeId;
use self_emerging_data::dht::population::NodeInfo;
use self_emerging_data::faults::{RecoveryPolicy, Scenario};
use self_emerging_data::sim::time::{SimDuration, SimTime};

/// Calls observed across every substrate one trial batch built.
#[derive(Debug, Default)]
struct Calls {
    resolves: Cell<u64>,
    stores: Cell<u64>,
    finds: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// A transparent [`HolderSubstrate`] wrapper that counts calls.
struct Counting {
    inner: AnalyticSubstrate,
    calls: Rc<Calls>,
}

impl HolderSubstrate for Counting {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.inner.advance_to(t);
    }

    fn resolve_holder(&self, target: &NodeId) -> usize {
        bump(&self.calls.resolves);
        self.inner.resolve_holder(target)
    }

    fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        self.inner.closest_slots(target, count)
    }

    fn generations(&self, slot: usize) -> &[NodeInfo] {
        self.inner.generations(slot)
    }

    fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        self.inner.generation_at(slot, t)
    }

    fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        self.inner.any_malicious_exposure(slot, from, to)
    }

    fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        self.inner.exposures_during(slot, from, to)
    }

    fn sample_distinct_slots(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        self.inner.sample_distinct_slots(count, rng)
    }

    fn store(&mut self, key: NodeId, value: Vec<u8>, ttl: Option<SimDuration>) -> Vec<usize> {
        bump(&self.calls.stores);
        HolderSubstrate::store(&mut self.inner, key, value, ttl)
    }

    fn find_value(&mut self, key: NodeId) -> Option<Vec<u8>> {
        bump(&self.calls.finds);
        HolderSubstrate::find_value(&mut self.inner, key)
    }
}

const TRIALS: usize = 6;
const SEED: u64 = 0xCA11;

fn world() -> OverlayConfig {
    OverlayConfig {
        n_nodes: 150,
        malicious_fraction: 0.3,
        mean_lifetime: Some(10_000),
        horizon: 100_000,
    }
}

fn params_for(kind: SchemeKind) -> SchemeParams {
    match kind {
        SchemeKind::Central => SchemeParams::Central,
        SchemeKind::Disjoint => SchemeParams::Disjoint { k: 2, l: 3 },
        SchemeKind::Joint => SchemeParams::Joint { k: 2, l: 3 },
        SchemeKind::Share => SchemeParams::Share {
            k: 2,
            l: 3,
            n: 5,
            m: vec![3, 3],
        },
    }
}

fn spec(kind: SchemeKind, attack: AttackMode) -> ProtocolTrialSpec {
    ProtocolTrialSpec {
        params: params_for(kind),
        emerging_period: SimDuration::from_ticks(3_000),
        attack,
    }
}

/// A factory building counted worlds that all report into `calls`.
fn counted(calls: &Rc<Calls>) -> impl FnMut(u64) -> Counting + '_ {
    move |seed| Counting {
        inner: AnalyticSubstrate::build(world(), seed),
        calls: Rc::clone(calls),
    }
}

fn assert_no_dht_lookups(label: &str, calls: &Calls) {
    assert!(
        calls.resolves.get() > 0,
        "{label}: the trials must run on the counted substrate"
    );
    assert_eq!(calls.stores.get(), 0, "{label}: store calls");
    assert_eq!(calls.finds.get(), 0, "{label}: find_value calls");
}

#[test]
fn protocol_trials_never_store_or_look_up_values() {
    for kind in SchemeKind::ALL {
        for attack in [
            AttackMode::Passive,
            AttackMode::ReleaseAhead,
            AttackMode::Drop,
        ] {
            let spec = spec(kind, attack);
            let calls = Rc::new(Calls::default());
            let counted_run = run_protocol_trials(&spec, TRIALS, SEED, counted(&calls)).unwrap();
            assert_no_dht_lookups(&format!("{kind} under {attack:?}"), &calls);

            // The wrapper is transparent: same trials, same outcomes.
            let bare = run_protocol_trials(&spec, TRIALS, SEED, |s| {
                AnalyticSubstrate::build(world(), s)
            })
            .unwrap();
            assert_eq!(counted_run.fingerprint, bare.fingerprint, "{kind}");
        }
    }
}

#[test]
fn faulted_trials_never_store_or_look_up_values() {
    let spec = spec(SchemeKind::Share, AttackMode::ReleaseAhead);
    let plan = Scenario::CrashStorm.plan(150_000, 4_000, SEED);
    let calls = Rc::new(Calls::default());
    let run = run_faulted_trials(
        &spec,
        &plan,
        RecoveryPolicy::default(),
        TRIALS,
        SEED,
        counted(&calls),
    )
    .unwrap();
    assert!(
        run.disrupted.successes() > 0,
        "the crash storm must disrupt some trial"
    );
    assert_no_dht_lookups("faulted share", &calls);
}

//! Integration: the full `P_LL` pipeline across engines, parameters, and
//! population sizes — the paper's headline behavior end to end.

use population_protocols::core::{Pll, PllParams, Status, SymPll};
use population_protocols::engine::{CountSimulation, Simulation, UniformScheduler};
use population_protocols::rand::{SeedSequence, Xoshiro256PlusPlus};

#[test]
fn pll_elects_exactly_one_leader_across_sizes() {
    for n in [2usize, 3, 5, 17, 100, 1000] {
        let pll = Pll::for_population(n).expect("n >= 2");
        let mut sim =
            Simulation::new(pll, n, UniformScheduler::seed_from_u64(n as u64)).expect("n >= 2");
        let outcome = sim.run_until_single_leader(u64::MAX);
        assert!(outcome.converged, "n={n}");
        assert_eq!(sim.leader_count(), 1, "n={n}");
        // Permanence: the elected leader is never lost (safe configuration).
        sim.run(100_000);
        assert_eq!(sim.leader_count(), 1, "n={n} lost its leader");
    }
}

#[test]
fn both_engines_elect_on_the_same_protocol() {
    let n = 400;
    let pll = Pll::for_population(n).expect("n >= 2");
    let mut agent = Simulation::new(pll, n, UniformScheduler::seed_from_u64(9)).expect("n >= 2");
    assert!(agent.run_until_single_leader(u64::MAX).converged);

    let pll = Pll::for_population(n).expect("n >= 2");
    let rng = Xoshiro256PlusPlus::seed_from_u64(9);
    let mut count = CountSimulation::new(pll, n, rng).expect("n >= 2");
    assert!(count.run_until_single_leader(u64::MAX).converged);
    assert_eq!(count.leader_count(), 1);
}

#[test]
fn oversized_size_knowledge_still_elects() {
    // m must be >= lg n; larger m only slows the clock down.
    let n = 64;
    let params = PllParams::new(32).expect("m >= 1");
    params.check_covers(n).expect("32 >= lg 64");
    let mut sim =
        Simulation::new(Pll::new(params), n, UniformScheduler::seed_from_u64(5)).expect("n >= 2");
    assert!(sim.run_until_single_leader(u64::MAX).converged);
}

#[test]
fn undersized_size_knowledge_converges_via_backup() {
    // Violating m >= lg n voids the O(log n) analysis but BackUp still
    // guarantees eventual election (possibly slower).
    let n = 512;
    let params = PllParams::new(3).expect("m >= 1");
    assert!(params.check_covers(n).is_err());
    let mut sim =
        Simulation::new(Pll::new(params), n, UniformScheduler::seed_from_u64(6)).expect("n >= 2");
    let outcome = sim.run_until_single_leader(2_000_000_000);
    assert!(outcome.converged, "undersized m failed to elect at all");
}

#[test]
fn symmetric_and_asymmetric_agree_on_outcome() {
    let n = 150;
    for seed in [1u64, 2, 3] {
        let mut asym = Simulation::new(
            Pll::for_population(n).expect("n >= 2"),
            n,
            UniformScheduler::seed_from_u64(seed),
        )
        .expect("n >= 2");
        assert!(asym.run_until_single_leader(u64::MAX).converged);

        let mut sym = Simulation::new(
            SymPll::for_population(n).expect("n >= 3"),
            n,
            UniformScheduler::seed_from_u64(seed),
        )
        .expect("n >= 2");
        assert!(sym.run_until_single_leader(u64::MAX).converged);
    }
}

#[test]
fn lemma4_invariants_hold_along_a_long_run() {
    let n = 200;
    let pll = Pll::for_population(n).expect("n >= 2");
    let mut sim = Simulation::new(pll, n, UniformScheduler::seed_from_u64(11)).expect("n >= 2");
    let assigned = sim.run_until(64, u64::MAX, |sim| {
        sim.states().iter().all(|s| s.status != Status::X)
    });
    assert!(assigned.converged);
    for _ in 0..100 {
        sim.run(500);
        let a = sim
            .states()
            .iter()
            .filter(|s| s.status == Status::A)
            .count();
        let b = sim
            .states()
            .iter()
            .filter(|s| s.status == Status::B)
            .count();
        let f = sim.states().iter().filter(|s| !s.leader).count();
        assert!(a * 2 >= n, "|V_A| < n/2");
        assert!(f * 2 >= n, "|V_F| < n/2");
        assert!(b >= 1, "no timer agents");
    }
}

#[test]
fn deterministic_replay_reproduces_executions() {
    let n = 128;
    let run = |seed: u64| -> (u64, usize) {
        let pll = Pll::for_population(n).expect("n >= 2");
        let mut sim =
            Simulation::new(pll, n, UniformScheduler::seed_from_u64(seed)).expect("n >= 2");
        let o = sim.run_until_single_leader(u64::MAX);
        (o.steps, sim.leader_count())
    };
    assert_eq!(run(77), run(77), "same seed, same execution");
}

#[test]
fn seed_sequence_drives_independent_runs() {
    let n = 64;
    let seq = SeedSequence::new(123);
    let times: Vec<u64> = (0..4)
        .map(|i| {
            let pll = Pll::for_population(n).expect("n >= 2");
            let mut sim = Simulation::new(pll, n, UniformScheduler::seed_from_u64(seq.seed_at(i)))
                .expect("n >= 2");
            sim.run_until_single_leader(u64::MAX).steps
        })
        .collect();
    // Different seeds essentially never give identical stabilization steps.
    assert!(times.windows(2).any(|w| w[0] != w[1]));
}

/// The count engine must not grow. On a 2-vCPU container, padding the batch
/// scratch with two unused `Vec` fields (800 → 848 bytes) raised the
/// Table-1 sweep benchmark's `setup_s` by 20–30% (0.021–0.026 s against
/// 0.027–0.033 s over 5 alternating pairs), though timing engine
/// construction alone showed no difference. 800 bytes is the size before
/// the batch round moved to one margin per segment (776 after, when the
/// responder sequence buffer went away). A new field must pay for itself by
/// retiring another.
#[test]
#[cfg(target_pointer_width = "64")]
fn count_engine_stays_within_its_size_budget() {
    let size = std::mem::size_of::<CountSimulation<Pll, Xoshiro256PlusPlus>>();
    assert!(
        size <= 800,
        "CountSimulation<Pll> is {size} bytes, over the 800-byte budget"
    );
}

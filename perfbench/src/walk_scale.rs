//! `walk-scale`: the `walk-scale` generator at its family seed, at sizes
//! drawn from the benchmark seed. Each op decides emptiness of one
//! automaton's language the way `violation_nta` plus the emptiness tail do:
//! the walk kernel at default options, its DBTA → NTA conversion, then a
//! lazy intersection with the all-trees type.

use crate::gen::walk_scale_sizes;
use crate::layers::{self, all_trees, Emptiness};
use crate::measure::{first_setup, Decision, Outcome, Rate};
use crate::{run_passes, Args};
use xmltc_automata::enumerate::trees_up_to;
use xmltc_bench::scaled::{scaled_alphabet, scaled_walker};
use xmltc_core::accepts;
use xmltc_core::machine::PebbleAutomaton;
use xmltc_typecheck::{TypecheckError, TypecheckOptions};

/// The family seed every size is generated with: all sizes share one
/// behaviour closure.
const FAMILY_SEED: u64 = 0xA11CE;
/// DBTA states the shared closure has at every size.
const DBTA_STATES: u32 = 460;
/// Sizes per round, one from each equal-width stratum of the size range.
pub const ROUND: usize = 4;
/// Rounds generated (the loop cycles through them).
const ROUNDS: usize = 3;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 15;
/// Depth and count of the bounded enumeration that must find no accepted
/// tree when a verdict says the language is empty.
const EMPTY_DEPTH: usize = 3;
const EMPTY_TREES: usize = 2000;

type Seen = Result<Emptiness, TypecheckError>;

fn decision(s: &Seen) -> Decision {
    match s {
        Ok(_) => Decision::Decided,
        Err(TypecheckError::TooManyStates { .. }) => Decision::Undecided,
        Err(_) => Decision::Failed,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let al = scaled_alphabet();
    let (machines, setup) = first_setup(SETUPS, || {
        walk_scale_sizes(args.seed, ROUND * ROUNDS)
            .into_iter()
            .map(|n| (n, scaled_walker(&al, n, FAMILY_SEED)))
            .collect::<Vec<(usize, PebbleAutomaton)>>()
    });
    let all = all_trees(&al);
    let opts = TypecheckOptions::default();
    let n = machines.len();
    let mut seen: Vec<Vec<Seen>> = (0..n).map(|_| Vec::new()).collect();

    let mut outcome = run_passes(
        args,
        ROUND,
        Rate::MedianWindow,
        setup,
        |k| k % n,
        |_, &i, p| {
            let s = layers::emptiness(p, &machines[i].1, &all, &opts);
            let d = decision(&s);
            seen[i].push(s);
            d
        },
    );

    // Reference checks: the closure pin, witnesses accepted by the pebble
    // automaton's own semantics, and no accepted small tree when empty.
    let mut wrong = Vec::new();
    let small_trees = trees_up_to(&all, EMPTY_DEPTH, EMPTY_TREES);
    for ((size, a), results) in machines.iter().zip(&seen) {
        for e in results.iter().flatten() {
            if e.dbta_states != Some(DBTA_STATES) {
                wrong.push(format!(
                    "ws-{size}: {:?} DBTA states, expected {DBTA_STATES}",
                    e.dbta_states
                ));
            }
            match &e.witness {
                Some(w) if !accepts(a, w).unwrap_or(false) => {
                    wrong.push(format!("ws-{size}: witness not accepted by the automaton"))
                }
                None if small_trees.iter().any(|t| accepts(a, t).unwrap_or(false)) => wrong.push(
                    format!("ws-{size}: empty verdict, but a small tree is accepted"),
                ),
                _ => {}
            }
        }
    }
    outcome.wrong = wrong;
    Ok(outcome)
}

//! `pebble-k2`: k ≥ 2 pebble automata decided by the default route (MSO
//! today). Each round holds the E9 machines `tower(k=2)`, `tower(k=3)` and
//! `two-y-leaves` and a seeded draw of small 2-pebble automata, one from
//! each stratum of `gen::two_pebble_automaton`, in a seeded order. Each op
//! decides emptiness of one automaton's language, as `walk-scale` does.
//! Rounds differ in cost by design, so throughput is taken over the whole
//! loop rather than as the median round's rate.

use crate::gen::{mix, shuffle, two_pebble_automaton, TWO_PEBBLE_STRATA};
use crate::layers::{self, all_trees, Emptiness};
use crate::measure::{first_setup, Decision, Outcome, Rate};
use crate::{run_passes, Args};
use std::sync::Arc;
use xmltc_automata::enumerate::trees_up_to;
use xmltc_bench::{pebble_tower, ranked_alphabet, two_y_leaves};
use xmltc_core::accepts;
use xmltc_core::machine::PebbleAutomaton;
use xmltc_mso::CompileError;
use xmltc_trees::Alphabet;
use xmltc_typecheck::{TypecheckError, TypecheckOptions};

/// Seeded 2-pebble automata per round, one per stratum.
const RANDOM_PER_ROUND: usize = TWO_PEBBLE_STRATA;
/// Ops per round: the three E9 machines and the random draw.
pub const ROUND: usize = 3 + RANDOM_PER_ROUND;
/// Rounds generated (the loop cycles through them).
const ROUNDS: usize = 40;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 25;
/// Bounded enumeration backing empty verdicts.
const EMPTY_DEPTH: usize = 4;
const EMPTY_TREES: usize = 3000;

type Seen = Result<Emptiness, TypecheckError>;

fn decision(s: &Seen) -> Decision {
    match s {
        Ok(_) => Decision::Decided,
        Err(TypecheckError::TooManyStates { .. })
        | Err(TypecheckError::Mso(CompileError::StateLimit { .. }))
        | Err(TypecheckError::Mso(CompileError::TooManyVariables)) => Decision::Undecided,
        Err(_) => Decision::Failed,
    }
}

fn plan(seed: u64, al: &Arc<Alphabet>) -> Vec<(String, PebbleAutomaton)> {
    let mut ops = Vec::new();
    for r in 0..ROUNDS as u64 {
        let mut round: Vec<(String, PebbleAutomaton)> = vec![
            ("tower(k=2)".into(), pebble_tower(al, 2)),
            ("tower(k=3)".into(), pebble_tower(al, 3)),
            ("two-y-leaves".into(), two_y_leaves(al)),
        ];
        for i in 0..RANDOM_PER_ROUND {
            let s = mix(seed ^ mix(r << 32 | i as u64));
            round.push((
                format!("random-2pebble({i}, {s:#x})"),
                two_pebble_automaton(al, i, s),
            ));
        }
        shuffle(&mut round, mix(seed ^ r));
        ops.extend(round);
    }
    ops
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let al = ranked_alphabet();
    let (ops, setup) = first_setup(SETUPS, || plan(args.seed, &al));
    let all = all_trees(&al);
    let opts = TypecheckOptions::default();
    let n = ops.len();
    let mut seen: Vec<Vec<Seen>> = (0..n).map(|_| Vec::new()).collect();

    let mut outcome = run_passes(
        args,
        ROUND,
        Rate::WholeLoop,
        setup,
        |k| k % n,
        |_, &i, p| {
            let s = layers::emptiness(p, &ops[i].1, &all, &opts);
            let d = decision(&s);
            seen[i].push(s);
            d
        },
    );

    // Reference checks: witnesses are accepted by the pebble automaton's
    // own semantics; empty verdicts find no accepted small tree.
    let mut wrong = Vec::new();
    let small_trees = trees_up_to(&all, EMPTY_DEPTH, EMPTY_TREES);
    for ((name, a), results) in ops.iter().zip(&seen) {
        for e in results.iter().flatten() {
            match &e.witness {
                Some(w) if !accepts(a, w).unwrap_or(false) => {
                    wrong.push(format!("{name}: witness not accepted by the automaton"))
                }
                None if small_trees.iter().any(|t| accepts(a, t).unwrap_or(false)) => wrong.push(
                    format!("{name}: empty verdict, but a small tree is accepted"),
                ),
                _ => {}
            }
        }
    }
    outcome.wrong = wrong;
    Ok(outcome)
}

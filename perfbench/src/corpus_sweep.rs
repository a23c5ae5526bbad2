//! `corpus-sweep`: a seeded draw of `transducer-dsl` corpus triples, equal
//! shares of all six families, typechecked with default options at
//! `CORPUS_STATE_LIMIT`. Budget-hit cases stay in the draw and count as
//! undecided.
//!
//! The draw is a seeded order of corpus coordinates, large enough that a
//! run rarely sees a case twice, after a few pinned cases. Set-up draws the
//! order and generates and compiles the first window's cases; every later
//! case is generated and compiled just before its op, outside the op's
//! timing, so memory holds at most one window of cases and peak RSS
//! reflects the typechecker, not the stored inputs.

use crate::gen::{mix, shuffle};
use crate::layers;
use crate::measure::{first_setup, Decision, Outcome, Rate};
use crate::{run_passes, Args};
use xmltc_transducer_dsl::{generate, CompiledScenario, Family, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc_trees::BinaryTree;
use xmltc_typecheck::bounded::{bounded_typecheck, BoundedOutcome};
use xmltc_typecheck::{
    replay_counterexample, typecheck, TypecheckError, TypecheckOptions, TypecheckOutcome,
};

/// Corpus cases every draw starts with: `silent-chains` cases whose walk
/// construction peaks near 315 MB, about twice any other case a 20 s run
/// meets. Roughly half of all seeded draws contain such a case, so without
/// these the run's peak RSS would read either ~175 MB or ~315 MB depending
/// on the seed; with them it always includes the corpus's memory ceiling.
const PINNED: [(u64, Family, u64); 2] = [
    (0x739f_7f89_b250_fd11, Family::SilentChains, 2973),
    (0x6925_41ad_93ad_caaf, Family::SilentChains, 10755),
];
/// Cases per family in one draw.
const PER_FAMILY: u64 = 12_000;
/// Ops per measurement window (see `measure::run_loop`).
const WINDOW: usize = 500;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 9;
/// Input depth and count of the bounded cross-check of `Ok` verdicts.
const BOUNDED_DEPTH: usize = 4;
const BOUNDED_INPUTS: usize = 40;

/// What one typecheck of a case returned, kept for the reference checks.
/// Trees are kept as text: the case is compiled afresh (with fresh
/// alphabets) for the checks.
#[derive(Clone, PartialEq, Debug)]
enum Seen {
    Ok,
    Counterexample(String, Option<String>),
    Budget,
    Error(String),
}

fn seen(r: Result<TypecheckOutcome, TypecheckError>) -> Seen {
    match r {
        Ok(TypecheckOutcome::Ok) => Seen::Ok,
        Ok(TypecheckOutcome::CounterExample { input, bad_output }) => {
            Seen::Counterexample(input.to_string(), bad_output.map(|b| b.to_string()))
        }
        Err(TypecheckError::TooManyStates { .. }) => Seen::Budget,
        Err(e) => Seen::Error(e.to_string()),
    }
}

fn decision(s: &Seen) -> Decision {
    match s {
        Seen::Ok | Seen::Counterexample(..) => Decision::Decided,
        Seen::Budget => Decision::Undecided,
        Seen::Error(_) => Decision::Failed,
    }
}

/// The draw: the pinned cases, then `PER_FAMILY` case coordinates of every
/// family under a corpus seed derived from the benchmark seed, in a seeded
/// order. Coordinates are `(corpus seed, family, index)`.
fn draw(seed: u64) -> Vec<(u64, Family, u64)> {
    let corpus_seed = mix(seed ^ 0xc0de);
    let mut drawn: Vec<(u64, Family, u64)> = FAMILIES
        .iter()
        .flat_map(|&f| (0..PER_FAMILY).map(move |i| (corpus_seed, f, i)))
        .collect();
    shuffle(&mut drawn, seed);
    PINNED.iter().copied().chain(drawn).collect()
}

fn case((corpus_seed, family, index): (u64, Family, u64)) -> CompiledScenario {
    generate(corpus_seed, family, index)
        .compile()
        .expect("generated corpus cases always lower")
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((order, first), setup) = first_setup(SETUPS, || {
        let order = draw(args.seed);
        let first: Vec<CompiledScenario> = order[..WINDOW].iter().map(|&c| case(c)).collect();
        (order, first)
    });
    let mut first: Vec<Option<CompiledScenario>> = first.into_iter().map(Some).collect();
    let name = |i: usize| {
        let (corpus_seed, family, index) = order[i];
        format!("{family}#{index} (corpus seed {corpus_seed:#x})")
    };
    let opts = TypecheckOptions {
        state_limit: CORPUS_STATE_LIMIT,
        ..TypecheckOptions::default()
    };
    let n = order.len();
    let mut results: Vec<Option<Seen>> = vec![None; n];
    let mut wrong = Vec::new();
    let mut note = |i: usize, s: Seen, wrong: &mut Vec<String>| match &results[i] {
        None => results[i] = Some(s),
        Some(prev) if *prev != s => wrong.push(format!(
            "{}: verdict changed between runs ({prev:?} then {s:?})",
            name(i)
        )),
        Some(_) => {}
    };

    let mut outcome = run_passes(
        args,
        WINDOW,
        Rate::MedianWindow,
        setup,
        |k| {
            first
                .get_mut(k)
                .and_then(Option::take)
                .unwrap_or_else(|| case(order[k % n]))
        },
        |k, c, p| {
            // The untraced pass calls the public entry point; the traced
            // pass the same steps layer by layer.
            let r = match p.0 {
                None => typecheck(&c.transducer, &c.tau1, &c.tau2, &opts),
                Some(_) => layers::typecheck(p, &c.transducer, &c.tau1, &c.tau2, &opts),
            };
            let s = seen(r);
            let d = decision(&s);
            note(k % n, s, &mut wrong);
            d
        },
    );

    // Reference checks, after the timed loop: every counterexample replays
    // through the real transducer and types; every `Ok` agrees with the
    // bounded exhaustive checker.
    for (i, r) in results.iter().enumerate() {
        if !matches!(r, Some(Seen::Ok | Seen::Counterexample(..))) {
            continue;
        }
        let name = name(i);
        let c = case(order[i]);
        match r {
            Some(Seen::Counterexample(input, bad)) => {
                let Some(bad) = bad else {
                    wrong.push(format!("{name}: counterexample without a bad output"));
                    continue;
                };
                let replay = BinaryTree::parse(input, &c.input)
                    .and_then(|i| BinaryTree::parse(bad, &c.output).map(|b| (i, b)));
                let replay = replay.map_err(TypecheckError::from).and_then(|(i, b)| {
                    replay_counterexample(&c.transducer, &c.tau1, &c.tau2, &i, &b)
                });
                match replay {
                    Ok(ev) if ev.verified() => {}
                    other => {
                        wrong.push(format!("{name}: counterexample does not replay: {other:?}"))
                    }
                }
            }
            Some(Seen::Ok) => {
                match bounded_typecheck(
                    &c.transducer,
                    &c.tau1,
                    &c.tau2,
                    BOUNDED_DEPTH,
                    BOUNDED_INPUTS,
                ) {
                    Ok(BoundedOutcome::NoViolationFound { .. }) => {}
                    other => wrong.push(format!(
                        "{name}: Ok contradicted by the bounded check: {other:?}"
                    )),
                }
            }
            _ => {}
        }
    }
    outcome.wrong = wrong;
    Ok(outcome)
}

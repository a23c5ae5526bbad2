//! The typechecker decomposed into its public layer calls, so the traced
//! run can put a span around each one. With no tracer attached the same
//! calls run bare; the sequence mirrors `xmltc_typecheck::typecheck` (and
//! `inverse::violation_nta`) step for step.

use crate::measure::Tracer;
use xmltc_automata::{lazy, LazyError, Nta, State};
use xmltc_core::machine::PebbleAutomaton;
use xmltc_core::PebbleTransducer;
use xmltc_trees::{Alphabet, BinaryTree};
use xmltc_typecheck::check::{extract_bad_output_with, ResolvedRoute};
use xmltc_typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc_typecheck::{
    mso_route, violation_automaton, Engine, TypecheckError, TypecheckOptions, TypecheckOutcome,
};

/// An optional tracer: spans and counters are recorded only when present.
pub struct Probe<'a>(pub Option<&'a mut Tracer>);

impl Probe<'_> {
    /// Runs `f`, inside a span named `name` when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.0.as_deref_mut() {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }

    /// Adds to counter `name` when tracing.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(t) = self.0.as_deref_mut() {
            t.count(name, value);
        }
    }
}

/// The automaton accepting every tree over `al`.
pub fn all_trees(al: &std::sync::Arc<Alphabet>) -> Nta {
    let mut a = Nta::new(al, 1);
    for l in al.leaves() {
        a.add_leaf(l, State(0));
    }
    for b in al.binaries() {
        a.add_node(b, State(0), State(0), State(0));
    }
    a.add_final(State(0));
    a
}

fn lift(e: LazyError) -> TypecheckError {
    match e {
        LazyError::AlphabetMismatch => {
            TypecheckError::Tree(xmltc_trees::TreeError::AlphabetMismatch)
        }
        LazyError::ConfigLimit { n } => TypecheckError::TooManyStates { n },
    }
}

/// Theorem 4.7 on `a` by the route `opts` resolves for its pebble count:
/// the walk kernel plus its DBTA → NTA conversion, or the MSO compilation.
/// Returns the trimmed regular automaton and, on the walk route, the DBTA
/// state count.
pub fn to_regular(
    p: &mut Probe,
    a: &PebbleAutomaton,
    opts: &TypecheckOptions,
) -> Result<(Nta, Option<u32>), TypecheckError> {
    match opts.route_for(a.k()) {
        ResolvedRoute::Walk => {
            let wopts = WalkOptions {
                limit: opts.state_limit,
                threads: opts.threads,
                parallel_threshold: opts.parallel_threshold,
                chunk: opts.chunk,
            };
            let (d, ws) = p.span("walk.kernel", || walking_to_dbta_with(a, &wopts))?;
            p.count("walk.dbta_states", d.n_states() as f64);
            p.count("walk.compositions", ws.compositions as f64);
            p.count("walk.memo_hits", ws.memo_hits as f64);
            p.count("walk.fixpoint_steps", ws.fixpoint_steps as f64);
            p.count("walk.parallel_batches", ws.parallel_batches as f64);
            let nta = p.span("walk.convert", || d.to_nta().trim());
            Ok((nta, Some(d.n_states())))
        }
        ResolvedRoute::Mso => {
            let (nta, st) = p.span("mso.compile", || {
                mso_route::pebble_to_nta(a, opts.state_limit).map(|(n, s)| (n.trim(), s))
            })?;
            p.count("mso.max_states", st.max_states as f64);
            p.count("mso.determinizations", st.determinizations as f64);
            p.count("mso.operations", st.operations as f64);
            Ok((nta, None))
        }
    }
}

/// A witness of `inst(a) ∩ inst(b)`, by the engine the route resolves to.
pub fn witness(
    p: &mut Probe,
    a: &Nta,
    b: &Nta,
    engine: Engine,
    limit: u32,
) -> Result<Option<BinaryTree>, TypecheckError> {
    p.span("emptiness", || match engine {
        Engine::Lazy => lazy::intersection_witness(a, b, limit)
            .map(|(o, s)| (o.into_witness(), s.states_materialized))
            .map_err(lift),
        _ => Ok((a.intersect(b).witness(), 0)),
    })
    .map(|(w, states)| {
        p.count("emptiness.states_materialized", states as f64);
        w
    })
}

/// Theorem 4.4 through its layers: Prop 4.6 product, Theorem 4.7, the
/// emptiness check and Prop 3.8 bad-output extraction.
pub fn typecheck(
    p: &mut Probe,
    t: &PebbleTransducer,
    tau1: &Nta,
    tau2: &Nta,
    opts: &TypecheckOptions,
) -> Result<TypecheckOutcome, TypecheckError> {
    let engine = opts.engine_for(opts.route_for(t.k()));
    let v = p.span("product", || {
        violation_automaton(t, tau2).map(|v| v.trim_states())
    })?;
    p.count("product.pebble_states", v.core().n_states() as f64);
    let (violations, _) = to_regular(p, &v, opts)?;
    match witness(p, tau1, &violations, engine, opts.state_limit)? {
        None => Ok(TypecheckOutcome::Ok),
        Some(input) => {
            let bad_output = p.span("bad_output", || {
                extract_bad_output_with(t, &input, tau2, engine, opts)
            })?;
            Ok(TypecheckOutcome::CounterExample { input, bad_output })
        }
    }
}

/// Emptiness of a pebble automaton's language: Theorem 4.7 on the default
/// route, then a lazy intersection with the all-trees type — the tail
/// `violation_nta` and the emptiness check run on a violation automaton.
pub struct Emptiness {
    /// A tree the automaton accepts, if any.
    pub witness: Option<BinaryTree>,
    /// DBTA states, when the walk route ran.
    pub dbta_states: Option<u32>,
}

/// Decides emptiness of `a` (see [`Emptiness`]).
pub fn emptiness(
    p: &mut Probe,
    a: &PebbleAutomaton,
    all: &Nta,
    opts: &TypecheckOptions,
) -> Result<Emptiness, TypecheckError> {
    let (nta, dbta_states) = to_regular(p, a, opts)?;
    let witness = witness(p, all, &nta, Engine::Lazy, opts.state_limit)?;
    Ok(Emptiness {
        witness,
        dbta_states,
    })
}

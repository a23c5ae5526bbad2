//! The scaled walk-route instance family: seeded, DSL-generated 1-pebble
//! walking automata engineered so the Theorem 4.7 frontier saturates.
//!
//! The flagship Q2/mod-3 instance collapses under projected memoization
//! (66 distinct fixpoint runs), which leaves nothing to measure kernel
//! cost on. The machines here are built in the opposite direction, in two
//! layers:
//!
//! * A fixed **diversity core** of [`CORE`] states carries all the
//!   behavioural nondeterminism: per-binary Down clusters, forks, sparse
//!   leaf accepts, and up-moves confined to [`UP_TARGETS`] core states so
//!   the exit-mask lattice is finite and the behaviour closure converges.
//!   (Scaling the *random* layer itself diverges: a 24-state draw at these
//!   densities already blows past 1200 behaviour classes.)
//! * **Padding** states `p_k` scale the instance: short Stay-chains whose
//!   rows are unions of sliding windows of core rows — deterministic
//!   functions of the core behaviour, so they add fixpoint steps, row
//!   width and projection entries without adding behaviour classes. Every
//!   binary's Down-target list is salted with its own padding residue
//!   class, which makes the per-symbol projections *fine-grained*: distinct
//!   behaviours stay distinct after projection, so the deduped job count
//!   approaches the full `B·m²` pair count instead of collapsing — a
//!   saturated frontier by construction.
//!
//! Each instance is a pure function of `(states, seed)` — byte-identical
//! machines on every host, which is what lets `tests/walk_determinism.rs`
//! pin the DBTA the frontier builds.

use std::sync::Arc;
use xmltc_core::machine::{Guard, Move, PebbleAutomaton};
use xmltc_transducer_dsl::{MachineSpec, Syms};
use xmltc_trees::{Alphabet, SmallRng};

/// Binary symbols in the scaled alphabet (each owns a target cluster).
pub const BINARIES: usize = 6;
/// Leaf symbols in the scaled alphabet.
pub const LEAVES: usize = 4;
/// Size of the diversity core. All nondeterministic structure lives here;
/// sized so the behaviour-class count lands near 460 — small enough that
/// the `6·m²` pair replay stays a fraction of the composition work, large
/// enough to keep thousands of distinct jobs in flight.
pub const CORE: usize = 12;
/// Up-moves land only in core states `c0..c{UP_TARGETS}`, capping the
/// exit-mask lattice so the behaviour closure converges.
pub const UP_TARGETS: usize = 5;

/// The scaled ranked alphabet: leaves `l0..l3`, binaries `b0..b5` — wide
/// enough that per-symbol action tables and projections genuinely differ.
pub fn scaled_alphabet() -> Arc<Alphabet> {
    let leaves: Vec<String> = (0..LEAVES).map(|j| format!("l{j}")).collect();
    let bins: Vec<String> = (0..BINARIES).map(|j| format!("b{j}")).collect();
    Alphabet::ranked(&leaves, &bins)
}

/// Generates one scaled walking automaton: a [`CORE`]-state random core
/// plus `n − CORE` pass-through padding states. Pure in `(n, seed)`, and
/// the RNG stream deliberately does **not** mix in `n`: every size of the
/// same seed shares one core machine, so the behaviour closure (classes,
/// rounds, job count) is provably identical across sizes and the size
/// axis of a scaling curve isolates per-job kernel cost.
pub fn scaled_walker(al: &Arc<Alphabet>, n: usize, seed: u64) -> PebbleAutomaton {
    gen_with(al, n, seed, GenParams::default())
}

/// Salt probability: chance per `(core state, binary)` of a DownRight rule
/// into the binary's exposed padding window (and, at half this rate, a
/// DownLeft one). Tuned by the `probe_convergence_across_sizes` sweep.
const SALT: f64 = 0.3;
/// Exposure width: how many padding slots per binary re-export core rows.
/// Wider ⇒ finer projections ⇒ more distinct jobs — but each salted rule
/// also enriches the closure, so this trades class count for job count.
const EXPOSE: usize = 5;
/// Ballast Stay-chain segment length (cost propagation depth per core-row
/// change).
const SEGMENT: usize = 16;
/// Ballast fan-out: Stay edges per ballast state into rotating core
/// states. Each in-edge is one more row union per recompute, fattening
/// per-job kernel cost without touching the closure.
const FAN: usize = 2;

/// Generator knobs threaded through [`gen_with`]; the tuned values live in
/// the module consts, the probe sweeps alternatives.
#[derive(Clone, Copy)]
struct GenParams {
    core: usize,
    salt: f64,
    expose: usize,
    up_targets: usize,
    fan: usize,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            core: CORE,
            salt: SALT,
            expose: EXPOSE,
            up_targets: UP_TARGETS,
            fan: FAN,
        }
    }
}

fn gen_with(al: &Arc<Alphabet>, n: usize, seed: u64, p: GenParams) -> PebbleAutomaton {
    let GenParams {
        core: core_n,
        salt,
        expose,
        up_targets,
        fan,
    } = p;
    let n = n.max(core_n + BINARIES * expose);
    let padding = n - core_n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let core = |i: usize| format!("c{}", i % core_n);
    let pad = |k: usize| format!("p{}", k % padding);
    let bin = |j: usize| format!("b{}", j % BINARIES);
    let mut s = MachineSpec::new("walk_scale", 1);
    for i in 0..core_n {
        s.state(core(i), 1);
    }
    for k in 0..padding {
        s.state(pad(k), 1);
    }
    s.initial("c0");
    // Padding states are reached only through Down-target lists; the rule
    // graph from `c0` need not cover them for the fixpoint to use them.
    s.allow_unreachable();

    // Core backbone: every core state reachable without the RNG's help.
    for i in 0..core_n {
        s.walk(
            Syms::one(bin(i)),
            core(i),
            Guard::any(),
            Move::DownLeft,
            core(i + 1),
        );
    }
    // Each binary's core Down rules target its own cluster of core states,
    // so per-symbol action tables genuinely differ.
    let cluster = core_n / BINARIES + 1;
    for j in 0..BINARIES {
        for i in 0..core_n {
            if rng.gen_bool(0.25) {
                let target = (j * cluster + rng.gen_range(0..cluster)) % core_n;
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::DownRight,
                    core(target),
                );
            }
            if rng.gen_bool(0.12) {
                let target = ((j + 1) * cluster + rng.gen_range(0..cluster)) % core_n;
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::DownLeft,
                    core(target),
                );
            }
            if rng.gen_bool(0.08) {
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::UpLeft,
                    core(rng.gen_range(0..up_targets)),
                );
            }
            if rng.gen_bool(0.08) {
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::UpRight,
                    core(rng.gen_range(0..up_targets)),
                );
            }
            if rng.gen_bool(0.03) {
                s.fork(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    core(rng.gen_range(0..core_n)),
                    core(rng.gen_range(0..core_n)),
                );
            }
        }
    }
    // Core Stay mixing.
    for i in 0..core_n {
        if rng.gen_bool(0.3) {
            s.walk(
                Syms::Any,
                core(i),
                Guard::any(),
                Move::Stay,
                core(rng.gen_range(0..core_n)),
            );
        }
    }
    // Leaf behaviour on the core: accepts and up-moves decide which exit
    // sets a leaf symbol's base behaviour exposes.
    for l in 0..LEAVES {
        let leaf = format!("l{l}");
        for i in 0..core_n {
            if rng.gen_bool(0.18) {
                s.accept(Syms::one(&leaf), core(i), Guard::any());
            }
            if rng.gen_bool(0.10) {
                s.walk(
                    Syms::one(&leaf),
                    core(i),
                    Guard::any(),
                    Move::UpLeft,
                    core(rng.gen_range(0..up_targets)),
                );
            }
            if rng.gen_bool(0.10) {
                s.walk(
                    Syms::one(&leaf),
                    core(i),
                    Guard::any(),
                    Move::UpRight,
                    core(rng.gen_range(0..up_targets)),
                );
            }
        }
    }
    // The projection salt. Each binary `b_j` owns the padding residue
    // class `{p_k : k ≡ j (mod B)}`; its first `expose` slots re-export a
    // random selection of core rows (the exposure list). Salted Down rules
    // from core states into those slots put the re-exported rows on
    // `b_j`'s projection key, so behaviours that differ *anywhere* on the
    // exposure stay distinct after projection — the frontier cannot
    // collapse the way the flagship's does. (The salted rules also enrich
    // the closure itself — extra Down rules mean extra unions at parents —
    // which is why `SALT`/`EXPOSE` are tuned against divergence.)
    let exposures: Vec<Vec<usize>> = (0..BINARIES)
        .map(|_| {
            let mut e: Vec<usize> = (0..core_n).collect();
            for t in 0..expose {
                let u = t + rng.gen_range(0..core_n - t);
                e.swap(t, u);
            }
            e.truncate(expose);
            e
        })
        .collect();
    for j in 0..BINARIES {
        for i in 0..core_n {
            if rng.gen_bool(salt) {
                let t = rng.gen_range(0..expose);
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::DownRight,
                    pad(j + BINARIES * t),
                );
            }
            if rng.gen_bool(salt / 2.0) {
                let t = rng.gen_range(0..expose);
                s.walk(
                    Syms::one(bin(j)),
                    core(i),
                    Guard::any(),
                    Move::DownLeft,
                    pad(j + BINARIES * t),
                );
            }
        }
    }
    // Exposed pass-through rows: `row(p_k) = row(c_{E_j[u]})` for slot `u`
    // of residue class `j` — exactly one Stay rule, so the projection key
    // re-exports a core row verbatim.
    let exposed = BINARIES * expose;
    for k in 0..exposed {
        let j = k % BINARIES;
        let u = k / BINARIES;
        s.walk(
            Syms::Any,
            pad(k),
            Guard::any(),
            Move::Stay,
            core(exposures[j][u]),
        );
    }
    // Ballast: the remaining padding states form Stay-chain segments that
    // drop into rotating core states. Their rows are suffix unions of core
    // rows — recomputed down the chain whenever a core row changes — but
    // NOTHING ever walks down into a ballast state, so they feed no values
    // back into the closure: classes, rounds and job counts are exactly
    // those of the `n = CORE + exposed` machine at every size, while
    // fixpoint steps, row storage and interning work scale with `n`. The
    // size axis of a scaling curve therefore isolates per-job kernel cost.
    for k in exposed..padding {
        let off = k - exposed;
        let mut drops = std::collections::BTreeSet::new();
        for f in 0..fan {
            drops.insert((off.wrapping_mul(5) + off / SEGMENT + f * 7) % core_n);
        }
        for t in drops {
            s.walk(Syms::Any, pad(k), Guard::any(), Move::Stay, core(t));
        }
        if !(off + 1).is_multiple_of(SEGMENT) && k + 1 < padding {
            s.walk(Syms::Any, pad(k), Guard::any(), Move::Stay, pad(k + 1));
        }
    }
    s.build_automaton(al)
        .expect("scaled walker spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use xmltc_typecheck::walk::{walking_to_dbta_with, WalkOptions};

    #[test]
    fn scaled_family_is_deterministic() {
        let al = scaled_alphabet();
        let a = scaled_walker(&al, 64, 0xA11CE);
        let b = scaled_walker(&al, 64, 0xA11CE);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    #[ignore = "tuning probe: run with --ignored --nocapture"]
    fn probe_convergence_across_sizes() {
        let al = scaled_alphabet();
        let opts = WalkOptions {
            limit: 2000,
            ..Default::default()
        };
        let show = |label: String, a: &xmltc_core::machine::PebbleAutomaton| {
            let t0 = Instant::now();
            match walking_to_dbta_with(a, &opts) {
                Ok((d, stats)) => println!(
                    "{label}: dbta={} misses={} pairs={} steps={} rounds={} wall={:.0}ms",
                    d.n_states(),
                    stats.memo_misses,
                    stats.pairs,
                    stats.fixpoint_steps,
                    stats.rounds,
                    t0.elapsed().as_secs_f64() * 1e3
                ),
                Err(e) => println!(
                    "{label}: DIVERGED past 2000 classes ({e:?}) after {:.0}ms",
                    t0.elapsed().as_secs_f64() * 1e3
                ),
            }
        };
        for (core, salt, expose, up) in [
            (12, 0.25, 4, 6),
            (12, 0.3, 5, 5),
            (13, 0.25, 4, 6),
            (14, 0.2, 4, 6),
            (14, 0.25, 3, 5),
        ] {
            let p = GenParams {
                core,
                salt,
                expose,
                up_targets: up,
                fan: FAN,
            };
            let a = gen_with(&al, 64, 0xA11CE, p);
            show(
                format!("n=64 core={core} salt={salt} expose={expose} up={up}"),
                &a,
            );
        }
        for n in [128usize, 256, 512, 1024] {
            let a = scaled_walker(&al, n, 0xA11CE);
            show(format!("n={n} (tuned)"), &a);
        }
    }

    #[test]
    fn smallest_instance_converges_and_saturates() {
        let a = scaled_walker(&scaled_alphabet(), 128, 0xA11CE);
        // The explicit limit turns a generator regression (divergent
        // behaviour closure) into a fast test failure instead of a hang.
        let opts = WalkOptions {
            limit: 20_000,
            ..Default::default()
        };
        let (d, stats) = walking_to_dbta_with(&a, &opts).unwrap();
        println!(
            "ws-128: dbta_states={} misses={} pairs={} steps={} rounds={}",
            d.n_states(),
            stats.memo_misses,
            stats.pairs,
            stats.fixpoint_steps,
            stats.rounds
        );
        assert!(d.n_states() > 1, "family must not collapse to a point");
        assert!(
            stats.memo_misses > 1_000,
            "frontier must stay saturated under projected memoization \
             (got {} distinct jobs)",
            stats.memo_misses
        );
        assert_eq!(
            stats.memo_hits + stats.memo_misses,
            stats.compositions,
            "memo accounting must cover every composition"
        );
    }
}

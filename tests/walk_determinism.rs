//! Byte-identity pin of the Theorem 4.7 walk construction. For the seeded
//! (stylesheet, output spec) triples the differential suite draws from,
//! the scaled `walk-scale` instance and a small or-search walker, the DBTA
//! digest (state count, leaf map, node transitions, finals), the
//! construction counters and the class-budget abort points are compared
//! against constants recorded from the reference solver. Any change to the
//! frontier scan, the projected memo keys, the canonical replay or the
//! class budget shows up here as a changed digest or counter.

use xmltc::automata::Dbta;
use xmltc::core::machine::{AutomatonBuilder, Guard, Move, PebbleAutomaton, SymSpec};
use xmltc::dtd::Dtd;
use xmltc::trees::{Alphabet, SmallRng};
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions, WalkStats};
use xmltc::typecheck::{violation_automaton, TypecheckError};
use xmltc::xmlql::{Stylesheet, Template};

/// Template bodies for the `root` tag (the differential-suite pool).
const ROOT_BODIES: [&str; 4] = [
    "out(@apply)",
    "out(b, @apply)",
    "out(@apply, @apply)",
    "out",
];

/// Template bodies for the `a` tag.
const A_BODIES: [&str; 4] = ["a", "b", "a(@apply)", "b(@apply, b)"];

/// Output content models for `out` (the `τ₂` pool).
const SPECS: [&str; 6] = ["(a|b)*", "b*", "b.(a|b)*", "a*", "b?.(a|b)*", "@empty"];

/// Compiles one (stylesheet, spec) combo into its trimmed 1-pebble
/// violation automaton — the exact machine the walk route receives.
fn violation(root_body: &str, a_body: &str, spec: &str) -> PebbleAutomaton {
    let sheet = Stylesheet::new(vec![
        Template::parse("root", root_body).unwrap(),
        Template::parse("a", a_body).unwrap(),
    ]);
    let probe_dtd = Dtd::parse_text("root := a*\na := a*").unwrap();
    let (t, _enc_in, enc_out) = sheet.compile(probe_dtd.alphabet()).unwrap();
    let out_src = enc_out.source();
    // Tags the stylesheet can never output become `@empty` in the model.
    let mut spec_text = spec.to_string();
    let avail: Vec<&str> = ["a", "b"]
        .into_iter()
        .filter(|t| out_src.get(t).is_some())
        .collect();
    let mut lines = Vec::new();
    for tag in ["a", "b"] {
        if avail.contains(&tag) {
            lines.push(format!("{tag} := ({})*", avail.join("|")));
        } else {
            spec_text = spec_text.replace(tag, "@empty");
        }
    }
    lines.insert(0, format!("out := {spec_text}"));
    let tau2 = Dtd::parse_text_with(&lines.join("\n"), out_src)
        .unwrap()
        .compile(&enc_out)
        .unwrap();
    violation_automaton(&t, &tau2).unwrap().trim_states()
}

/// An or-search for some `y` leaf over `{x, y; f}`: a handful of classes,
/// cheap enough to abort at every budget below its full size.
fn some_y() -> PebbleAutomaton {
    let al = Alphabet::ranked(&["x", "y"], &["f"]);
    let y = al.get("y").unwrap();
    let mut b = AutomatonBuilder::new(&al, 1);
    let q = b.state("search", 1).unwrap();
    b.set_initial(q);
    b.branch0(SymSpec::One(y), q, Guard::any()).unwrap();
    b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
        .unwrap();
    b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownRight, q)
        .unwrap();
    b.build().unwrap()
}

/// A DBTA digest plus the [`counters`] of its construction.
type Pin = (u64, [u64; 7]);

/// 64-bit FNV-1a over the little-endian bytes of a `u64` stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a DBTA's exact structure: state count, the leaf map sorted by
/// symbol, the node transitions sorted by `(symbol, q₁, q₂)` and the
/// finals, each list length-prefixed.
fn digest(d: &Dbta) -> u64 {
    let mut h = Fnv::new();
    h.put(u64::from(d.n_states()));
    let mut leaves: Vec<(u32, u32)> = d
        .alphabet()
        .leaves()
        .into_iter()
        .filter_map(|s| d.leaf_state(s).map(|q| (s.0, q.0)))
        .collect();
    leaves.sort_unstable();
    h.put(leaves.len() as u64);
    for (s, q) in leaves {
        h.put(u64::from(s));
        h.put(u64::from(q));
    }
    let mut nodes: Vec<[u32; 4]> = d
        .node_transitions_map()
        .iter()
        .map(|(&(s, q1, q2), &q)| [s.0, q1.0, q2.0, q.0])
        .collect();
    nodes.sort_unstable();
    h.put(nodes.len() as u64);
    for n in nodes {
        for x in n {
            h.put(u64::from(x));
        }
    }
    let mut finals: Vec<u32> = d.finals().iter().map(|q| q.0).collect();
    finals.sort_unstable();
    h.put(finals.len() as u64);
    for q in finals {
        h.put(u64::from(q));
    }
    h.0
}

/// The pinned counters: `pairs`, `compositions`, `memo_hits`,
/// `memo_misses`, `fixpoint_steps`, `rounds`, `dbta_states`.
fn counters(s: &WalkStats) -> [u64; 7] {
    [
        s.pairs,
        s.compositions,
        s.memo_hits,
        s.memo_misses,
        s.fixpoint_steps,
        s.rounds,
        s.dbta_states,
    ]
}

/// Builds `a` without a class budget; returns its digest and counters.
fn build(a: &PebbleAutomaton) -> Pin {
    let (d, s) = walking_to_dbta_with(a, &WalkOptions::default()).unwrap();
    assert_eq!(u64::from(d.n_states()), s.dbta_states);
    (digest(&d), counters(&s))
}

/// The `TooManyStates { n }` of `a` at every budget `0..full`, where
/// `full` is its unbudgeted class count; the build at `full` succeeds.
fn aborts(a: &PebbleAutomaton) -> Vec<u32> {
    let full = walking_to_dbta_with(a, &WalkOptions::default())
        .unwrap()
        .0
        .n_states();
    let at = |limit: u32| {
        walking_to_dbta_with(
            a,
            &WalkOptions {
                limit,
                ..Default::default()
            },
        )
    };
    let out = (0..full)
        .map(|limit| match at(limit) {
            Err(TypecheckError::TooManyStates { n }) => n,
            other => panic!("limit {limit}: expected budget abort, got {other:?}"),
        })
        .collect();
    assert_eq!(at(full).unwrap().0.n_states(), full);
    out
}

/// The 16 seeded cases: `(root body, a body, spec)` pool indices, DBTA
/// digest and counters.
const SEEDED: [((usize, usize, usize), Pin); 16] = [
    (
        (2, 1, 2),
        (0x9922f8ed489f3df1, [4107, 4108, 4071, 37, 1522, 4, 37]),
    ),
    (
        (0, 3, 1),
        (0xc17edcdbeba0e9b3, [3675, 3676, 3639, 37, 1617, 4, 35]),
    ),
    (
        (1, 2, 2),
        (0xc17edcdbeba0e9b3, [3675, 3676, 3639, 37, 2255, 4, 35]),
    ),
    (
        (0, 1, 1),
        (0xd3c5a0a41d6eda53, [4107, 4108, 4071, 37, 898, 4, 37]),
    ),
    (
        (3, 3, 4),
        (0x7551fa3531b3d180, [2883, 2884, 2847, 37, 936, 4, 31]),
    ),
    (
        (1, 0, 2),
        (0xd3c5a0a41d6eda53, [4107, 4108, 4071, 37, 1307, 4, 37]),
    ),
    (
        (3, 2, 5),
        (0x02483ddf1a67de84, [3072, 3073, 3040, 33, 678, 3, 32]),
    ),
    ((3, 0, 1), (0xfd9ef138b48d6d09, [12, 13, 9, 4, 30, 1, 2])),
    (
        (1, 1, 4),
        (0xd3c5a0a41d6eda53, [4107, 4108, 4071, 37, 964, 4, 37]),
    ),
    (
        (0, 0, 5),
        (0xdc60564c66b0e54d, [3267, 3268, 3235, 33, 666, 3, 33]),
    ),
    (
        (3, 2, 4),
        (0x2a2ec0eff7a2c39a, [4107, 4108, 4071, 37, 900, 4, 37]),
    ),
    (
        (2, 3, 1),
        (0xc17edcdbeba0e9b3, [3675, 3676, 3639, 37, 2246, 4, 35]),
    ),
    (
        (0, 0, 3),
        (0xd3c5a0a41d6eda53, [4107, 4108, 4071, 37, 898, 4, 37]),
    ),
    (
        (1, 1, 2),
        (0xd3c5a0a41d6eda53, [4107, 4108, 4071, 37, 964, 4, 37]),
    ),
    (
        (1, 0, 1),
        (0x8136f70fb2787b96, [4107, 4108, 4071, 37, 1272, 4, 37]),
    ),
    ((3, 0, 5), (0x7e969ef8cd61ac89, [12, 13, 9, 4, 30, 1, 2])),
];

/// The scaled n = 48 instance: DBTA digest and counters.
const SCALED_48: Pin = (
    0xb5aaa81c4b34cafa,
    [1269600, 1269604, 1264088, 5516, 185813, 13, 460],
);

/// [`some_y`]: DBTA digest and counters.
const SOME_Y: Pin = (0x650ca7a5d62b96a0, [4, 6, 0, 6, 6, 1, 2]);

/// `TooManyStates { n }` at budgets `0, 1, …` of the
/// `(ROOT_BODIES[1], A_BODIES[3], SPECS[2])` violation automaton
/// (35 classes unbudgeted).
const ABORTS_VIOLATION: [u32; 35] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    27, 28, 29, 30, 31, 32, 33, 34, 35,
];

/// `TooManyStates { n }` at budgets `0, 1` of [`some_y`] (2 classes).
const ABORTS_SOME_Y: [u32; 2] = [1, 2];

#[test]
fn seeded_cases_match_pinned_digests() {
    let mut rng = SmallRng::seed_from_u64(0x4703);
    for (case, &(idx, (want_digest, want_counters))) in SEEDED.iter().enumerate() {
        let ri = rng.gen_range(0..ROOT_BODIES.len());
        let ai = rng.gen_range(0..A_BODIES.len());
        let si = rng.gen_range(0..SPECS.len());
        assert_eq!((ri, ai, si), idx, "case {case}: seeded draw moved");
        let v = violation(ROOT_BODIES[ri], A_BODIES[ai], SPECS[si]);
        let (d, c) = build(&v);
        assert_eq!(c, want_counters, "case {case} {idx:?}: counters");
        assert_eq!(d, want_digest, "case {case} {idx:?}: DBTA digest");
    }
}

/// The scaled walk-scale family at n = 48: the seeded generator's
/// saturated frontier (460 behaviour classes, thousands of distinct jobs).
/// The closure is size-invariant by construction — every `ws-*` size
/// shares one core machine — so the smallest member pins the identical
/// frontier the benchmark's largest instance runs.
#[test]
fn scaled_family_build_is_byte_identical() {
    let al = xmltc::bench::scaled::scaled_alphabet();
    let a = xmltc::bench::scaled::scaled_walker(&al, 48, 0xA11CE);
    let (d, c) = build(&a);
    assert_eq!(c, SCALED_48.1, "scaled counters");
    assert_eq!(d, SCALED_48.0, "scaled DBTA digest");
}

/// The class budget aborts at the same canonical point as the reference
/// solver, reporting the first class over budget.
#[test]
fn too_many_states_aborts_at_pinned_points() {
    let v = violation(ROOT_BODIES[1], A_BODIES[3], SPECS[2]);
    assert_eq!(aborts(&v), ABORTS_VIOLATION);
    assert_eq!(aborts(&some_y()), ABORTS_SOME_Y);
    assert_eq!(build(&some_y()), SOME_Y);
}

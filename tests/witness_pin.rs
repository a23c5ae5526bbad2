//! Counterexample byte pin. For the first [`CASES`] cases of every corpus
//! family at seed `0xc0de`, the differential run's output — violation
//! automaton size, verdict, and the eager and lazy counterexample terms —
//! is folded into a 64-bit FNV-1a digest and compared against constants
//! recorded from the reference implementation.
//!
//! Both engines pick their witness by walking transition tables, so a
//! change to how those tables are built or iterated (capacity, hashing,
//! set representation) can move a counterexample without changing any
//! verdict. The differential suite would not notice; this test does.
//! A second test pins the size and language of the trimmed DBTA → NTA
//! conversion on the scaled n = 48 walk instance.

use xmltc::automata::enumerate::trees_up_to;
use xmltc::automata::{Nta, State};
use xmltc::dsl::{generate, CORPUS_STATE_LIMIT, FAMILIES};
use xmltc::typecheck::differential::differential_emptiness;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions};
use xmltc::typecheck::{TypecheckError, TypecheckOptions};

/// Cases per family.
const CASES: u64 = 40;

/// The corpus seed (the `xmltc corpus` default).
const SEED: u64 = 0xc0de;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The printed outcome of one case, in the `xmltc corpus` vocabulary.
fn outcome(family: xmltc::dsl::Family, index: u64) -> String {
    let c = generate(SEED, family, index)
        .compile()
        .expect("corpus case lowers");
    let opts = TypecheckOptions {
        state_limit: CORPUS_STATE_LIMIT,
        ..TypecheckOptions::default()
    };
    let show = |w: &Option<xmltc::trees::BinaryTree>| match w {
        Some(t) => format!("counterexample {t}"),
        None => "typechecks".to_string(),
    };
    match differential_emptiness(&c.transducer, &c.tau1, &c.tau2, &opts) {
        Ok(v) => format!(
            "violation automaton: {} states\neager: {}\nlazy:  {}\n",
            v.violation_states,
            show(&v.eager_witness),
            show(&v.lazy_witness)
        ),
        Err(TypecheckError::TooManyStates { n }) => format!("resource skip at {n}\n"),
        Err(e) => panic!("{} #{index}: pipeline error: {e}", family.name()),
    }
}

/// Per family (in [`FAMILIES`] order), the digest of each case's outcome.
const PINNED: [[u64; CASES as usize]; 6] = [
    // silent-chains
    [
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x83a50937d452490a,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x5616a108b47b9222,
        0xb2d9e46c7365d75e,
        0x88a603400c1c1d6f,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x50436384031d243d,
        0x59e62c91d6ec316b,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xad71225f7b4747fc,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x48432166d7231e89,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x5581cc8c3d1a2174,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
    ],
    // deep-nesting
    [
        0x0fa287a9760589f4,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x0cc0677a7dd2c776,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x878e000982b352ee,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x88f50664c172d76d,
        0xb2d9e46c7365d75e,
        0xcaba5a469b8914df,
        0x76e9bfd8029898f1,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x82f7f22a1b6bd128,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x5c0189a51ede3842,
        0x96130aaafbc6a279,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb371b119f2a6a189,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xd671b41dcdc82b35,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
    ],
    // near-empty
    [
        0xb2d9e46c7365d75e,
        0x2bdbe554196fe27d,
        0x4deab0644d794ff7,
        0x4ce59dcd8277a3e5,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0x01013eb7b644acc3,
        0xad71225f7b4747fc,
        0x88a603400c1c1d6f,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0x4674a5226877f3da,
        0xb2d9e46c7365d75e,
        0x4674a5226877f3da,
        0x78dbfb87bbe744ea,
        0x9cf0ddcbe3ee559f,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x59805f82c80ba796,
        0x4ce59dcd8277a3e5,
        0x8280500614fdfd31,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0x1288dc6b9994a751,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x76e9bfd8029898f1,
        0x10e72bab17814afc,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0x88a603400c1c1d6f,
        0xb2d9e46c7365d75e,
        0x8f8c92796abefcfc,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
    ],
    // near-universal
    [
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4674a5226877f3da,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xad71225f7b4747fc,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4674a5226877f3da,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
    ],
    // single-symbol
    [
        0x4674a5226877f3da,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0x55f9f45bf0b5d5f9,
        0x8f8c92796abefcfc,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x01013eb7b644acc3,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x76e9bfd8029898f1,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xad71225f7b4747fc,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0x82f7f22a1b6bd128,
        0xcaba5a469b8914df,
        0xad71225f7b4747fc,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x35873986f9b7d425,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x98e0562230b785d0,
        0x98e0562230b785d0,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
    ],
    // dead-states
    [
        0x58a3f4b2efb60edf,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xad71225f7b4747fc,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x6e0b7d480bc3d536,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x88f50664c172d76d,
        0x99a4cc276baa20ed,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0x88a603400c1c1d6f,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xad71225f7b4747fc,
        0xf467dd1d87619ef3,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0x76e9bfd8029898f1,
        0xcaba5a469b8914df,
        0xb2d9e46c7365d75e,
        0xb2d9e46c7365d75e,
        0x4ce59dcd8277a3e5,
        0xb2d9e46c7365d75e,
        0x76e9bfd8029898f1,
        0xb2d9e46c7365d75e,
        0xcaba5a469b8914df,
    ],
];

#[test]
fn corpus_counterexamples_match_pinned_digests() {
    let mut moved = Vec::new();
    for (f, &family) in FAMILIES.iter().enumerate() {
        for (i, &want) in PINNED[f].iter().enumerate() {
            let g = fnv1a(outcome(family, i as u64).as_bytes());
            if g != want {
                moved.push(format!(
                    "{} #{i}: {g:#018x} (pinned {want:#018x})",
                    family.name()
                ));
            }
        }
    }
    assert!(moved.is_empty(), "moved digests:\n{}", moved.join("\n"));
}

/// The scaled walk-scale instance at n = 48 (the byte-identity pin's
/// `SCALED_48`): states and node transitions of `d.to_nta().trim()`.
const SCALED_48_TRIMMED: (u32, usize) = (460, 1_269_600);

/// The DBTA → NTA hand-off keeps the language and the table sizes: the
/// trimmed conversion of the 460-class walk DBTA has the pinned counts and
/// agrees with the DBTA on every tree it enumerates and on a sample of all
/// trees of depth ≤ 3.
#[test]
fn scaled_conversion_keeps_counts_and_language() {
    let al = xmltc::bench::scaled::scaled_alphabet();
    let a = xmltc::bench::scaled::scaled_walker(&al, 48, 0xA11CE);
    let (d, _) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
    let nta = d.to_nta().trim();
    assert_eq!(
        (nta.n_states(), nta.node_transitions().count()),
        SCALED_48_TRIMMED
    );
    let mut any = Nta::new(&al, 1);
    for s in al.leaves() {
        any.add_leaf(s, State(0));
    }
    for s in al.binaries() {
        any.add_node(s, State(0), State(0), State(0));
    }
    any.add_final(State(0));
    let accepted = trees_up_to(&nta, 3, 2000);
    assert!(!accepted.is_empty());
    for t in accepted.iter().chain(&trees_up_to(&any, 3, 2000)) {
        assert_eq!(nta.accepts(t).unwrap(), d.accepts(t).unwrap(), "tree {t}");
    }
}

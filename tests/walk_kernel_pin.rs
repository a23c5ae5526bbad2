//! Kernel-counter pin of the Theorem 4.7 walk construction. For the same
//! instances `walk_determinism.rs` pins by DBTA digest — the 16 seeded
//! (stylesheet, output spec) cases, the scaled n = 48 instance and a small
//! or-search walker — the solver's internal counters are compared against
//! constants recorded from the full-recompute fixpoint.
//!
//! The semi-naive fixpoint builds `Stay`/`Fork` candidates only from rows
//! appended since a state was last popped. That may drop only minimal
//! insertions that would have returned false without writing a row, so
//! every arena row, worklist length and interned behaviour or projection
//! must still be the same: a candidate the delta wrongly skipped would
//! show up here as fewer kernel rows or interned behaviours.

use xmltc::core::machine::{AutomatonBuilder, Guard, Move, PebbleAutomaton, SymSpec};
use xmltc::dtd::Dtd;
use xmltc::trees::{Alphabet, SmallRng};
use xmltc::typecheck::violation_automaton;
use xmltc::typecheck::walk::{walking_to_dbta_with, WalkOptions, WalkStats};
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

/// An or-search for some `y` leaf over `{x, y; f}`.
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

/// The pinned kernel counters: `kernel_rows`, `kernel_row_peak`,
/// `worklist_peak`, `behaviors_interned`, `projections_interned`.
type Kernel = [u64; 5];

fn kernel(a: &PebbleAutomaton) -> Kernel {
    let s: WalkStats = walking_to_dbta_with(a, &WalkOptions::default()).unwrap().1;
    [
        s.kernel_rows,
        s.kernel_row_peak,
        s.worklist_peak,
        s.behaviors_interned,
        s.projections_interned,
    ]
}

/// The 16 seeded cases (same draw as `walk_determinism.rs`): pool indices
/// and kernel counters.
const SEEDED: [((usize, usize, usize), Kernel); 16] = [
    ((2, 1, 2), [1456, 66, 38, 72, 15]),
    ((0, 3, 1), [1520, 67, 43, 70, 15]),
    ((1, 2, 2), [1973, 90, 56, 70, 15]),
    ((0, 1, 1), [841, 36, 26, 72, 15]),
    ((3, 3, 4), [925, 38, 31, 61, 15]),
    ((1, 0, 2), [1169, 50, 39, 72, 15]),
    ((3, 2, 5), [633, 30, 22, 62, 14]),
    ((3, 0, 1), [17, 5, 6, 2, 1]),
    ((1, 1, 4), [933, 38, 31, 72, 15]),
    ((0, 0, 5), [633, 30, 22, 63, 14]),
    ((3, 2, 4), [814, 35, 26, 72, 15]),
    ((2, 3, 1), [2128, 97, 55, 70, 15]),
    ((0, 0, 3), [841, 36, 26, 72, 15]),
    ((1, 1, 2), [933, 38, 31, 72, 15]),
    ((1, 0, 1), [1176, 50, 39, 72, 15]),
    ((3, 0, 5), [22, 6, 6, 2, 1]),
];

/// The scaled n = 48 instance.
const SCALED_48: Kernel = [138527, 39, 46, 692, 262];

/// [`some_y`].
const SOME_Y: Kernel = [4, 1, 1, 2, 2];

#[test]
fn seeded_cases_match_pinned_kernel_counters() {
    let mut rng = SmallRng::seed_from_u64(0x4703);
    for (case, &(idx, want)) in SEEDED.iter().enumerate() {
        let ri = rng.gen_range(0..ROOT_BODIES.len());
        let ai = rng.gen_range(0..A_BODIES.len());
        let si = rng.gen_range(0..SPECS.len());
        assert_eq!((ri, ai, si), idx, "case {case}: seeded draw moved");
        let v = violation(ROOT_BODIES[ri], A_BODIES[ai], SPECS[si]);
        assert_eq!(kernel(&v), want, "case {case} {idx:?}: kernel counters");
    }
}

#[test]
fn scaled_family_kernel_counters() {
    let al = xmltc::bench::scaled::scaled_alphabet();
    let a = xmltc::bench::scaled::scaled_walker(&al, 48, 0xA11CE);
    assert_eq!(kernel(&a), SCALED_48);
}

#[test]
fn some_y_kernel_counters() {
    assert_eq!(kernel(&some_y()), SOME_Y);
}

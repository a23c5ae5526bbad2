//! Seeded generators: every input a workload runs is a pure function of
//! the benchmark seed, built here in the benchmark's own files.

use std::sync::Arc;
use xmltc_core::machine::{Guard, Move, PebbleAutomaton, Presence};
use xmltc_transducer_dsl::{MachineSpec, Syms};
use xmltc_trees::{Alphabet, SmallRng};

/// splitmix64's finalizer: derives independent sub-seeds from one seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(mix(seed));
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Smallest `walk-scale` size: the generator's core plus its exposed
/// padding (`CORE + BINARIES · EXPOSE` = 12 + 6 · 5); smaller requests are
/// clamped up to it.
pub const WALK_SCALE_MIN: usize = 42;
/// Largest `walk-scale` size drawn (the roster's ws-512).
pub const WALK_SCALE_MAX: usize = 512;

/// `count` walk-scale sizes in rounds of `crate::walk_scale::ROUND`: each
/// round draws one size uniformly from each of `ROUND` equal-width strata
/// of `[WALK_SCALE_MIN, WALK_SCALE_MAX]`, in a seeded order, so every seed
/// covers the whole range evenly.
pub fn walk_scale_sizes(seed: u64, count: usize) -> Vec<usize> {
    let round = crate::walk_scale::ROUND;
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0x5ca1e));
    let width = (WALK_SCALE_MAX - WALK_SCALE_MIN + 1) / round;
    let mut sizes = Vec::with_capacity(count);
    while sizes.len() < count {
        let mut r: Vec<usize> = (0..round)
            .map(|j| WALK_SCALE_MIN + j * width + rng.gen_range(0..width))
            .collect();
        shuffle(&mut r, rng.next_u64());
        sizes.extend(r);
    }
    sizes.truncate(count);
    sizes
}

/// Strata of `two_pebble_automaton`: the three drop sets times the three
/// presence guards.
pub const TWO_PEBBLE_STRATA: usize = 9;

/// A small seeded 2-pebble automaton over `al` (leaves `x`, `y`; binaries
/// `f`, `g`), one state per level — the shape of E9's `two-y-leaves`:
/// pebble 1 walks down on seeded symbols and drops pebble 2 on a leaf set;
/// pebble 2 walks down on seeded symbols and accepts on a seeded leaf under
/// a presence test on pebble 1. The drop set (every leaf, `x`, `y`) and the
/// presence test (any, present, absent) come from `stratum` (mod
/// `TWO_PEBBLE_STRATA`), not the seed: together they set most of the cost
/// (dropping on every leaf under an absence test costs ~5× the mean of the
/// other strata), so a draw that fills every stratum equally costs the
/// same from seed to seed. Larger machines reach the MSO route's
/// non-elementary tail (seconds to minutes, gigabytes) within a few states.
pub fn two_pebble_automaton(al: &Arc<Alphabet>, stratum: usize, seed: u64) -> PebbleAutomaton {
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0x2bebb1e));
    let leaves = ["x", "y"];
    let mut s = MachineSpec::new("random_2pebble", 2);
    s.state("w1", 1).state("w2", 2).initial("w1");
    for w in ["w1", "w2"] {
        for mv in [Move::DownLeft, Move::DownRight] {
            let on = match rng.gen_range(0..4) {
                0 => Syms::one("f"),
                1 => Syms::one("g"),
                _ => Syms::Binaries,
            };
            s.walk(on, w, Guard::any(), mv, w);
        }
    }
    let drop_on = match stratum % 3 {
        0 => Syms::Leaves,
        1 => Syms::one("x"),
        _ => Syms::one("y"),
    };
    s.walk(drop_on, "w1", Guard::any(), Move::PlaceNew, "w2");
    let guard = match stratum / 3 % 3 {
        0 => Guard::any(),
        1 => Guard(vec![Presence::Present]),
        _ => Guard(vec![Presence::Absent]),
    };
    s.accept(Syms::one(*rng.choose(&leaves)), "w2", guard);
    s.build_automaton(al)
        .expect("generated 2-pebble specs are well-formed")
}

/// One `serve-mix` typecheck fixture: the texts of a shipped fixture triple
/// (copied here so the benchmark's inputs do not move with the repository's
/// fixtures) and its hand-checked verdict.
pub struct Fixture {
    /// Fixture name.
    pub name: &'static str,
    /// Input DTD text.
    pub input_dtd: &'static str,
    /// Stylesheet text.
    pub stylesheet: &'static str,
    /// Output DTD text.
    pub output_dtd: &'static str,
    /// True when the stylesheet typechecks against the DTDs.
    pub typechecks: bool,
}

/// `fixtures/q2.dtd`, also the document type of `validate` and `transform`.
pub const Q2_DTD: &str = "root := a*\na := @eps";
/// `fixtures/q2.xsl` (Example 4.3).
pub const Q2_XSL: &str = "root -> result(b, @apply, b, @apply, b, @apply)\na -> a";
/// `fixtures/relabel.xsl` (Example 4.2's relabeling).
pub const RELABEL_XSL: &str = "root -> result(@apply)\na -> b";
const EVEN_A_DTD: &str = "root := (a.a)*\na := @eps";
const EVEN_B_DTD: &str = "result := (b.b)*\nb := @eps";

/// The hot fixtures with their expected verdicts.
pub const FIXTURES: [Fixture; 7] = [
    Fixture {
        name: "q2-mod3",
        input_dtd: Q2_DTD,
        stylesheet: Q2_XSL,
        output_dtd: "result := ((a|b).(a|b).(a|b))*\na := @eps\nb := @eps",
        typechecks: true,
    },
    Fixture {
        name: "q2-mod2",
        input_dtd: Q2_DTD,
        stylesheet: Q2_XSL,
        output_dtd: "result := ((a|b).(a|b))*\na := @eps\nb := @eps",
        typechecks: false,
    },
    Fixture {
        name: "relabel-even_a",
        input_dtd: EVEN_A_DTD,
        stylesheet: RELABEL_XSL,
        output_dtd: EVEN_B_DTD,
        typechecks: true,
    },
    Fixture {
        name: "relabel-any_a",
        input_dtd: Q2_DTD,
        stylesheet: RELABEL_XSL,
        output_dtd: EVEN_B_DTD,
        typechecks: false,
    },
    Fixture {
        name: "minimal",
        input_dtd: "root := @eps",
        stylesheet: "root -> result",
        output_dtd: "result := @eps",
        typechecks: true,
    },
    Fixture {
        name: "single",
        input_dtd: "s := s*",
        stylesheet: "s -> s(@apply)",
        output_dtd: "s := s*",
        typechecks: true,
    },
    Fixture {
        name: "single-strict",
        input_dtd: "s := s*",
        stylesheet: "s -> s(@apply)",
        output_dtd: "s := s",
        typechecks: false,
    },
];

/// Renames every tag of a DTD or stylesheet text by appending `suffix`
/// (keywords such as `@eps` and `@apply` are kept): a tag-renamed variant
/// has the same verdict as its fixture but shares no cache key with it.
pub fn rename_tags(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut word = String::new();
    let mut keyword = false;
    let flush = |out: &mut String, word: &mut String, keyword: bool| {
        if !word.is_empty() {
            out.push_str(word);
            if !keyword {
                out.push_str(suffix);
            }
            word.clear();
        }
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if word.is_empty() {
                keyword = out.ends_with('@');
            }
            word.push(c);
        } else {
            flush(&mut out, &mut word, keyword);
            out.push(c);
        }
    }
    flush(&mut out, &mut word, keyword);
    out
}

/// A `q2.dtd` document with `n` children `a`. When `nest` is set, one
/// child holds a nested `a`, which `a := @eps` forbids: the document is
/// invalid by construction.
pub fn q2_document(n: usize, nest: Option<usize>) -> String {
    let mut doc = String::from("<root>");
    for i in 0..n {
        if nest == Some(i) {
            doc.push_str("<a><a/></a>");
        } else {
            doc.push_str("<a/>");
        }
    }
    doc.push_str("</root>");
    doc
}

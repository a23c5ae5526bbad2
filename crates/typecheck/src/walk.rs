//! **Theorem 4.7, efficient route for k = 1**: branching tree-walking
//! automata → deterministic bottom-up tree automata by subtree-behaviour
//! composition.
//!
//! At `k = 1` the place/pick transitions are unusable (the stack discipline
//! forbids them), so a 1-pebble automaton is exactly a *branching
//! tree-walking automaton*: a head walking up and down the tree with
//! or-nondeterminism and and-branching. This covers the paper's practical
//! cases (Section 5): top-down transducers, the XSLT fragment, selection
//! queries — after the Proposition 4.6 product these yield 1-pebble
//! violation automata.
//!
//! For a subtree `s` and entry state `q`, a *resolution* is a finite run of
//! the branch process started at `(q, root(s))` in which every branch
//! either accepts (branch0) inside `s` or exits upward from `root(s)` to
//! its parent in some state. The **behaviour** of `s` maps each entry state
//! to the ⊆-minimal antichain of achievable *exit-state sets* (as bitset
//! rows); resolving to the empty set means outright acceptance inside `s`.
//! Whether up-moves may exit depends on which child position `s` occupies,
//! so a subtree carries a behaviour for each position (left/right), plus an
//! "accepts as a whole tree" bit. This triple is a finite congruence:
//! composing a node from its children's triples is a small least fixpoint
//! over the node's local rules. The resulting deterministic bottom-up
//! automaton, built lazily over reachable triples, recognizes exactly
//! `inst(A)`.
//!
//! # Performance architecture
//!
//! The construction is organized around a dense bitset kernel, projected
//! memo keys and incremental frontier discovery, while staying
//! bit-identical to the reference nested-loop build:
//!
//! * **Dense kernel** — exit sets are flat `u64` rows of a fixed width
//!   (`words` per machine) living in one contiguous per-composition arena
//!   ([`Workspace::arena`]); rows are immutable once written and referred
//!   to by dense ids, so `or`/`subset` are word-parallel loops over
//!   contiguous slices and a behaviour copy is a `memcpy`. Antichains are
//!   kept sorted by popcount ([`RowRef`]), so minimal-insertion
//!   ([`ac_insert_min`]) subset-checks only against rows that can possibly
//!   be subsets and drops only rows that can possibly be supersets.
//! * **Compiled tables** — walker rules are pre-compiled per symbol into
//!   CSR action and reverse-dependency arrays ([`SymTable`]), lifting all
//!   hash lookups out of the fixpoint inner loop. The children-independent
//!   part of each symbol's system is solved **once per symbol** into a
//!   popcount-sorted [`DenseBase`]; each composition seeds its arena from
//!   it with one slice copy and re-propagates only the `Down`-rule
//!   increments, and the root solution in turn seeds the left/right
//!   positional runs with just the up-move increments (sound because
//!   chaotic iteration from any point below the least fixpoint converges
//!   to it).
//! * **Projected memoization** — a composition reads a child behaviour
//!   only at the symbol's `Down`-rule targets, so the memo key is the
//!   *projection* of each child behaviour onto those targets
//!   ([`Projection`]). Distinct behaviour pairs that agree on the targets
//!   — or any pair under a symbol with no `Down` rules on a side —
//!   collapse to one fixpoint run; [`WalkStats::memo_hits`] counts the
//!   collapses. Frontier jobs are deduped per round on the same key.
//! * **Canonical replay** — each generation of unmemoized compositions is
//!   evaluated as one batch, its results interned in job-list order, and
//!   the reference discovery loop replayed verbatim against the memo, so
//!   state numbering — and therefore every downstream artifact — matches
//!   the reference build.
//! * **Incremental discovery** — the frontier scan keeps a `scanned`
//!   cursor over the triple arena: a round enumerates only pairs
//!   involving triples interned since the previous round (older pairs
//!   already resolved their memo key the round the younger member
//!   appeared), and the replay keeps persistent per-row column cursors
//!   instead of restarting from zero. Each ordered pair is therefore
//!   visited O(1) times across the whole run — `O(m²·B)` total instead of
//!   `O(rounds·m²·B)` — which is what keeps the bookkeeping a fraction of
//!   the composition work on saturated frontiers. Both cursors are pure
//!   functions of the interned-triple sequence, so the canonical order
//!   (and the DBTA) is deterministic.
//!
//! The solver is sequential: DESIGN.md ("Why one sequential solver")
//! records the measurements that retired the work-stealing frontier.

use crate::error::TypecheckError;
use xmltc_automata::state::StateSet;
use xmltc_automata::{Dbta, State};
use xmltc_core::machine::{Action, Move, PebbleAutomaton};
use xmltc_obs::journal;
use xmltc_trees::{FxHashMap, FxHashSet, Symbol};

/// Arena id of a bitset row (in row units: the row occupies words
/// `id * words .. (id + 1) * words` of its arena).
type RowId = u32;
/// Arena id of an interned behaviour.
type BehaviorId = u32;
/// Arena id of an interned behaviour projection.
type ProjId = u32;

/// An antichain member: arena row id plus the row's cached popcount.
/// Antichains are kept sorted by popcount ascending, which bounds both
/// phases of [`ac_insert_min`].
#[derive(Clone, Copy, Debug)]
struct RowRef {
    id: RowId,
    pc: u32,
}

#[inline]
fn row_at(arena: &[u64], id: RowId, words: usize) -> &[u64] {
    let s = id as usize * words;
    &arena[s..s + words]
}

#[inline]
fn row_popcount(row: &[u64]) -> u32 {
    row.iter().map(|w| w.count_ones()).sum()
}

/// `a ⊆ b` over equal-width rows.
#[inline]
fn row_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Iterates over set bit positions of a row.
fn row_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// Inserts `cand` into a popcount-sorted ⊆-minimal antichain, appending
/// the row to `arena` when it is genuinely new. Returns true when the
/// represented upward-closed set grew.
///
/// Phase 1 scans entries with `pc ≤ |cand|` — the only possible subsets of
/// `cand` (an equal-popcount subset is equality) — and bails if one is
/// found. Phase 2 compacts away entries with `pc > |cand|` that are
/// supersets of `cand`, preserving order, then inserts `cand` at the
/// popcount-sorted position. Rows are append-only; dropped entries leave
/// their arena rows dead until the composition's arena resets.
fn ac_insert_min(ac: &mut Vec<RowRef>, arena: &mut Vec<u64>, words: usize, cand: &[u64]) -> bool {
    let pc = row_popcount(cand);
    let mut i = 0;
    while i < ac.len() && ac[i].pc <= pc {
        if row_subset(row_at(arena, ac[i].id, words), cand) {
            return false;
        }
        i += 1;
    }
    let mut k = i;
    for j in i..ac.len() {
        if !row_subset(cand, row_at(arena, ac[j].id, words)) {
            ac[k] = ac[j];
            k += 1;
        }
    }
    ac.truncate(k);
    let id = (arena.len() / words) as RowId;
    arena.extend_from_slice(cand);
    ac.insert(i, RowRef { id, pc });
    true
}

/// A behaviour in flat, canonical form: entry state `q`'s antichain is the
/// rows `offsets[q]..offsets[q + 1]` (row units), each antichain sorted
/// lexicographically by row words. Serves as both the interning key and
/// the stored representation — two allocations per behaviour.
#[derive(Clone, PartialEq, Eq, Hash)]
struct FlatBehavior {
    offsets: Vec<u32>,
    rows: Vec<u64>,
}

impl FlatBehavior {
    fn ac(&self, q: usize, words: usize) -> &[u64] {
        &self.rows[self.offsets[q] as usize * words..self.offsets[q + 1] as usize * words]
    }
}

/// Flattens solved antichain lists into canonical (lexicographically
/// row-sorted) flat form.
fn flatten(lists: &[Vec<RowRef>], arena: &[u64], words: usize) -> FlatBehavior {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0u32);
    let mut rows: Vec<u64> = Vec::new();
    let mut order: Vec<RowId> = Vec::new();
    for list in lists {
        order.clear();
        order.extend(list.iter().map(|e| e.id));
        order.sort_unstable_by(|&a, &b| row_at(arena, a, words).cmp(row_at(arena, b, words)));
        for &id in &order {
            rows.extend_from_slice(row_at(arena, id, words));
        }
        offsets.push((rows.len() / words) as u32);
    }
    FlatBehavior { offsets, rows }
}

/// Content-addressed behaviour store; equal behaviours share one id, so
/// triple identity and memo keys compare `u32`s. `rows_seen` tracks the
/// distinct exit-set rows occurring in interned behaviours (the kernel
/// analogue of the old mask arena, reported as
/// [`WalkStats::masks_interned`]).
#[derive(Default)]
struct BehaviorArena {
    index: FxHashMap<FlatBehavior, BehaviorId>,
    behaviors: Vec<FlatBehavior>,
    rows_seen: FxHashSet<Vec<u64>>,
}

impl BehaviorArena {
    fn intern(&mut self, b: FlatBehavior, words: usize) -> BehaviorId {
        if let Some(&id) = self.index.get(&b) {
            return id;
        }
        for row in b.rows.chunks_exact(words) {
            if !self.rows_seen.contains(row) {
                self.rows_seen.insert(row.to_vec());
            }
        }
        let id = self.behaviors.len() as BehaviorId;
        self.index.insert(b.clone(), id);
        self.behaviors.push(b);
        id
    }
}

/// A behaviour restricted to one symbol side's `Down`-rule targets: slot
/// `s` (the index into [`SymTable::targets`]) maps to the antichain rows
/// `offsets[s]..offsets[s + 1]` (row units). Compositions read children
/// *only* through projections, which is what makes the projected memo key
/// sound.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Projection {
    offsets: Vec<u32>,
    rows: Vec<u64>,
}

impl Projection {
    fn ac(&self, slot: usize, words: usize) -> &[u64] {
        &self.rows[self.offsets[slot] as usize * words..self.offsets[slot + 1] as usize * words]
    }
}

/// Content-addressed projection store.
#[derive(Default)]
struct ProjArena {
    index: FxHashMap<Projection, ProjId>,
    projs: Vec<Projection>,
}

impl ProjArena {
    fn intern(&mut self, p: Projection) -> ProjId {
        if let Some(&id) = self.index.get(&p) {
            return id;
        }
        let id = self.projs.len() as ProjId;
        self.index.insert(p.clone(), id);
        self.projs.push(p);
        id
    }
}

/// Computes and caches behaviour → projection ids per `(table, side)`.
/// Projection ids are assigned in canonical frontier-scan order, hence
/// deterministic.
struct Projector {
    arena: ProjArena,
    /// `cache[table][side][behavior]` = interned projection id, or
    /// `u32::MAX` when not yet computed.
    cache: Vec<[Vec<u32>; 2]>,
}

impl Projector {
    fn new(n_tables: usize) -> Projector {
        Projector {
            arena: ProjArena::default(),
            cache: (0..n_tables).map(|_| [Vec::new(), Vec::new()]).collect(),
        }
    }

    fn id(
        &mut self,
        walker: &Walker,
        behaviors: &BehaviorArena,
        ti: u32,
        side: usize,
        b: BehaviorId,
    ) -> ProjId {
        let cache = &mut self.cache[ti as usize][side];
        if b as usize >= cache.len() {
            cache.resize(b as usize + 1, u32::MAX);
        }
        if cache[b as usize] != u32::MAX {
            return cache[b as usize];
        }
        let words = walker.words;
        let targets = walker.tables[ti as usize].targets(side);
        let fb = &behaviors.behaviors[b as usize];
        let mut p = Projection {
            offsets: Vec::with_capacity(targets.len() + 1),
            rows: Vec::new(),
        };
        p.offsets.push(0);
        for &t in targets {
            p.rows.extend_from_slice(fb.ac(t as usize, words));
            p.offsets.push((p.rows.len() / words) as u32);
        }
        let id = self.arena.intern(p);
        self.cache[ti as usize][side][b as usize] = id;
        id
    }
}

/// An interned subtree triple: left/right behaviour ids plus the
/// whole-tree acceptance bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TripleIds {
    left: BehaviorId,
    right: BehaviorId,
    accepting: bool,
}

/// One pre-compiled local action (everything but up-moves, which are
/// position-dependent and kept separately).
#[derive(Clone, Copy)]
enum Act {
    /// `branch0` — accept with no exits.
    Accept,
    /// `branch2(q₁, q₂)` — and-branch into both states at this node.
    Fork(u32, u32),
    /// `stay(p)` — re-dispatch at this node in state `p`.
    Stay(u32),
    /// `down` into the left (`left = true`) or right child; `slot` indexes
    /// the side's target list (and therefore the child projection).
    Down { left: bool, slot: u32 },
}

/// The children-independent least fixpoint of one symbol, stored densely:
/// state `q`'s antichain is rows `offsets[q]..offsets[q + 1]` (row units),
/// popcount-sorted, with `pcs` caching per-row popcounts. Seeding a
/// composition is one `extend_from_slice` plus a [`RowRef`] list rebuild.
#[derive(Default)]
struct DenseBase {
    offsets: Vec<u32>,
    rows: Vec<u64>,
    pcs: Vec<u32>,
}

/// Per-symbol compiled rule table in CSR form: dense action lists plus the
/// static reverse-dependency edges (`Stay`/`Fork` reads) a worklist needs.
struct SymTable {
    acts_off: Vec<u32>,
    acts: Vec<Act>,
    /// `(state, exit target)` pairs of `UpLeft` rules.
    up_left: Vec<(u32, u32)>,
    /// `(state, exit target)` pairs of `UpRight` rules.
    up_right: Vec<(u32, u32)>,
    rdeps_off: Vec<u32>,
    rdeps: Vec<u32>,
    /// States with at least one action, ascending — the initial worklist
    /// of the base fixpoint.
    active: Vec<u32>,
    /// States with at least one `Down` action, ascending — the only states
    /// whose candidates depend on the children, hence the initial worklist
    /// of a composition's root run (restarted from [`SymTable::base`]).
    down_states: Vec<u32>,
    /// Whether any state has a `Down` action (gates down-dependency work).
    has_down: bool,
    /// Sorted distinct `DownLeft` targets; `Act::Down` slots index this.
    dl_targets: Vec<u32>,
    /// Sorted distinct `DownRight` targets.
    dr_targets: Vec<u32>,
    base: DenseBase,
}

impl SymTable {
    fn acts(&self, q: usize) -> &[Act] {
        &self.acts[self.acts_off[q] as usize..self.acts_off[q + 1] as usize]
    }

    fn rdeps(&self, q: usize) -> &[u32] {
        &self.rdeps[self.rdeps_off[q] as usize..self.rdeps_off[q + 1] as usize]
    }

    fn targets(&self, side: usize) -> &[u32] {
        if side == 0 {
            &self.dl_targets
        } else {
            &self.dr_targets
        }
    }
}

/// Raw (pre-CSR) action as collected from the rule stream.
#[derive(Clone, Copy)]
enum RawAct {
    Accept,
    Fork(u32, u32),
    Stay(u32),
    Down { left: bool, target: u32 },
}

/// Mutable per-symbol accumulator, frozen into a [`SymTable`].
struct TableBuilder {
    acts: Vec<Vec<RawAct>>,
    up_left: Vec<(u32, u32)>,
    up_right: Vec<(u32, u32)>,
    rdeps: Vec<Vec<u32>>,
}

impl TableBuilder {
    fn new(n_states: usize) -> TableBuilder {
        TableBuilder {
            acts: vec![Vec::new(); n_states],
            up_left: Vec::new(),
            up_right: Vec::new(),
            rdeps: vec![Vec::new(); n_states],
        }
    }

    fn freeze(mut self) -> SymTable {
        let n_states = self.acts.len();
        let mut dl_targets: Vec<u32> = Vec::new();
        let mut dr_targets: Vec<u32> = Vec::new();
        for acts in &self.acts {
            for a in acts {
                if let RawAct::Down { left, target } = *a {
                    if left {
                        dl_targets.push(target);
                    } else {
                        dr_targets.push(target);
                    }
                }
            }
        }
        dl_targets.sort_unstable();
        dl_targets.dedup();
        dr_targets.sort_unstable();
        dr_targets.dedup();
        let mut acts_off = Vec::with_capacity(n_states + 1);
        acts_off.push(0u32);
        let mut acts: Vec<Act> = Vec::new();
        let mut active = Vec::new();
        let mut down_states = Vec::new();
        for (q, list) in self.acts.iter().enumerate() {
            if !list.is_empty() {
                active.push(q as u32);
            }
            let mut q_down = false;
            for a in list {
                acts.push(match *a {
                    RawAct::Accept => Act::Accept,
                    RawAct::Fork(a1, a2) => Act::Fork(a1, a2),
                    RawAct::Stay(p) => Act::Stay(p),
                    RawAct::Down { left, target } => {
                        q_down = true;
                        let side = if left { &dl_targets } else { &dr_targets };
                        let slot = side.binary_search(&target).expect("registered target") as u32;
                        Act::Down { left, slot }
                    }
                });
            }
            if q_down {
                down_states.push(q as u32);
            }
            acts_off.push(acts.len() as u32);
        }
        let mut rdeps_off = Vec::with_capacity(n_states + 1);
        rdeps_off.push(0u32);
        let mut rdeps: Vec<u32> = Vec::new();
        for v in &mut self.rdeps {
            v.sort_unstable();
            v.dedup();
            rdeps.extend_from_slice(v);
            rdeps_off.push(rdeps.len() as u32);
        }
        self.up_left.sort_unstable();
        self.up_left.dedup();
        self.up_right.sort_unstable();
        self.up_right.dedup();
        SymTable {
            acts_off,
            acts,
            up_left: self.up_left,
            up_right: self.up_right,
            rdeps_off,
            rdeps,
            active,
            has_down: !down_states.is_empty(),
            down_states,
            dl_targets,
            dr_targets,
            base: DenseBase::default(),
        }
    }
}

/// Everything a single composition's fixpoint runs share: the compiled
/// symbol table, the (frozen) children projections, and the
/// per-composition dynamic down-dependency edges.
struct FixCtx<'a> {
    table: &'a SymTable,
    children: Option<(&'a Projection, &'a Projection)>,
    /// `down_rdeps[p]` = states with a `Down` action whose child antichain
    /// contains an exit set with bit `p`; empty when `!table.has_down` or
    /// there are no children.
    down_rdeps: &'a [Vec<u32>],
}

/// Worklist counters of one composition (summed/maxed into [`WalkStats`]).
#[derive(Clone, Copy, Default)]
struct JobStats {
    steps: u64,
    peak: u64,
    rows: u64,
    row_peak: u64,
}

/// Reusable buffers of the solver inner loop: flat candidate rows, a row
/// build buffer, and the exit-resolution double buffer (`acc`/`tmp` refs
/// into the private `pool` row arena).
#[derive(Default)]
struct Scratch {
    cands: Vec<u64>,
    row: Vec<u64>,
    pool: Vec<u64>,
    acc: Vec<RowRef>,
    tmp: Vec<RowRef>,
}

/// Reusable solver state: the composition-local row arena, the
/// two behaviour list buffers, the worklist with its membership flags, the
/// candidate scratch, and the down-dependency edge buffer. Compositions
/// run entirely inside one workspace, so after warm-up they allocate only
/// their (flat) results.
struct Workspace {
    /// Composition-local row storage; reset per composition, seeded from
    /// the symbol base.
    arena: Vec<u64>,
    /// Root-position antichain lists (restarted from the symbol base).
    root: Vec<Vec<RowRef>>,
    /// Positional (left/right) lists (restarted from `root`).
    pos: Vec<Vec<RowRef>>,
    /// The worklist; empty between runs.
    wl: Vec<u32>,
    /// `inq[q]` ⟺ `q` is on `wl`; all-false between runs.
    inq: Vec<bool>,
    scratch: Scratch,
    /// Buffer for [`FixCtx::down_rdeps`], refilled per composition.
    down_rdeps: Vec<Vec<u32>>,
}

impl Workspace {
    fn new(n_states: usize) -> Workspace {
        Workspace {
            arena: Vec::new(),
            root: vec![Vec::new(); n_states],
            pos: vec![Vec::new(); n_states],
            wl: Vec::new(),
            inq: vec![false; n_states],
            scratch: Scratch::default(),
            down_rdeps: vec![Vec::new(); n_states],
        }
    }
}

/// The raw (un-interned) result of one composition. `left`/`right` are
/// `None` when that child position admits no up-moves, in which case the
/// positional behaviour equals the root one (no copy, no re-interning).
struct RawTriple {
    root: FlatBehavior,
    left: Option<FlatBehavior>,
    right: Option<FlatBehavior>,
    accepting: bool,
}

/// Rebuilds the reverse edges induced by `Down` actions into `deps`:
/// state `q` must be re-examined when an exit state of the child antichain
/// it consumes grows. Shared by all three runs of one composition.
fn fill_down_rdeps(
    table: &SymTable,
    (pl, pr): (&Projection, &Projection),
    words: usize,
    deps: &mut [Vec<u32>],
) {
    for v in deps.iter_mut() {
        v.clear();
    }
    for &q in &table.down_states {
        for act in table.acts(q as usize) {
            if let Act::Down { left, slot } = *act {
                let child = if left { pl } else { pr };
                for exits in child.ac(slot as usize, words).chunks_exact(words) {
                    for e in row_bits(exits) {
                        deps[e].push(q);
                    }
                }
            }
        }
    }
    for v in deps.iter_mut() {
        v.sort_unstable();
        v.dedup();
    }
}

struct Walker {
    tables: Vec<SymTable>,
    sym_index: FxHashMap<Symbol, u32>,
    n_states: usize,
    words: usize,
    initial: usize,
}

impl Walker {
    /// Compiles the automaton's rules into per-symbol CSR tables (every
    /// alphabet symbol gets one, possibly empty, so jobs and memo keys can
    /// use dense table ids) and solves each symbol's children-independent
    /// base fixpoint (counted into `stats`, like every other solver run).
    fn new(a: &PebbleAutomaton, stats: &mut JobStats) -> Result<Walker, TypecheckError> {
        if a.k() != 1 {
            return Err(TypecheckError::NeedsOnePebble { k: a.k() });
        }
        let n_states = a.core().n_states() as usize;
        let alphabet = a.input_alphabet();
        let mut sym_index: FxHashMap<Symbol, u32> = FxHashMap::default();
        let mut builders: Vec<TableBuilder> = Vec::new();
        let mut slot_of = |sym: Symbol, builders: &mut Vec<TableBuilder>| -> usize {
            *sym_index.entry(sym).or_insert_with(|| {
                builders.push(TableBuilder::new(n_states));
                (builders.len() - 1) as u32
            }) as usize
        };
        // Register alphabet symbols first (leaves, then binaries, in
        // alphabet order) so table ids are rule-order independent.
        for &sym in alphabet.leaves().iter() {
            slot_of(sym, &mut builders);
        }
        for &sym in alphabet.binaries().iter() {
            slot_of(sym, &mut builders);
        }
        for (sym, q, guard, action) in a.core().rules() {
            debug_assert!(guard.0.is_empty(), "k = 1 guards are trivial");
            let ti = slot_of(sym, &mut builders);
            let t = &mut builders[ti];
            let qi = q.0;
            match action {
                Action::Branch0 => t.acts[q.index()].push(RawAct::Accept),
                Action::Branch2(q1, q2) => {
                    t.acts[q.index()].push(RawAct::Fork(q1.0, q2.0));
                    t.rdeps[q1.index()].push(qi);
                    t.rdeps[q2.index()].push(qi);
                }
                Action::Move(m, target) => match m {
                    Move::Stay => {
                        t.acts[q.index()].push(RawAct::Stay(target.0));
                        t.rdeps[target.index()].push(qi);
                    }
                    Move::UpLeft => t.up_left.push((qi, target.0)),
                    Move::UpRight => t.up_right.push((qi, target.0)),
                    Move::DownLeft | Move::DownRight => {
                        t.acts[q.index()].push(RawAct::Down {
                            left: matches!(m, Move::DownLeft),
                            target: target.0,
                        });
                    }
                    Move::PlaceNew | Move::PickCurrent => {
                        unreachable!("unusable at k = 1")
                    }
                },
                Action::Output0(..) | Action::Output2(..) => {
                    unreachable!("automata have no output transitions")
                }
            }
        }
        let mut walker = Walker {
            tables: builders.into_iter().map(TableBuilder::freeze).collect(),
            sym_index,
            n_states,
            words: n_states.div_ceil(64).max(1),
            initial: a.core().initial().index(),
        };
        // Base fixpoints: solve each symbol's system with `Down` candidates
        // absent (no children). Every composition restarts from here.
        let mut ws = Workspace::new(n_states);
        let mut bases: Vec<DenseBase> = Vec::with_capacity(walker.tables.len());
        for table in &walker.tables {
            let ctx = FixCtx {
                table,
                children: None,
                down_rdeps: &[],
            };
            ws.arena.clear();
            for list in ws.root.iter_mut() {
                list.clear();
            }
            for &q in &table.active {
                ws.inq[q as usize] = true;
                ws.wl.push(q);
            }
            walker.solve(
                &ctx,
                &mut ws.root,
                &mut ws.arena,
                &mut ws.wl,
                &mut ws.inq,
                &mut ws.scratch,
                stats,
            );
            let mut base = DenseBase {
                offsets: Vec::with_capacity(n_states + 1),
                rows: Vec::new(),
                pcs: Vec::new(),
            };
            base.offsets.push(0);
            for list in &ws.root {
                for e in list {
                    base.rows
                        .extend_from_slice(row_at(&ws.arena, e.id, walker.words));
                    base.pcs.push(e.pc);
                }
                base.offsets.push(base.pcs.len() as u32);
            }
            bases.push(base);
        }
        for (table, base) in walker.tables.iter_mut().zip(bases) {
            table.base = base;
        }
        Ok(walker)
    }

    fn slot(&self, sym: Symbol) -> u32 {
        self.sym_index[&sym]
    }

    /// Pushes all resolution candidates of state `q` against the current
    /// `r` into `scratch.cands` as flat rows. Candidates need not be
    /// mutually minimal — the [`ac_insert_min`] merge in [`Walker::solve`]
    /// filters them.
    fn candidates(
        &self,
        ctx: &FixCtx<'_>,
        r: &[Vec<RowRef>],
        arena: &[u64],
        q: usize,
        scratch: &mut Scratch,
    ) {
        let words = self.words;
        for act in ctx.table.acts(q) {
            match *act {
                Act::Accept => {
                    let n = scratch.cands.len();
                    scratch.cands.resize(n + words, 0);
                }
                Act::Fork(q1, q2) => {
                    for x in &r[q1 as usize] {
                        let xa = row_at(arena, x.id, words);
                        for y in &r[q2 as usize] {
                            let ya = row_at(arena, y.id, words);
                            scratch.cands.extend(xa.iter().zip(ya).map(|(a, b)| a | b));
                        }
                    }
                }
                Act::Stay(p) => {
                    for x in &r[p as usize] {
                        scratch.cands.extend_from_slice(row_at(arena, x.id, words));
                    }
                }
                Act::Down { left, slot } => {
                    let Some((pl, pr)) = ctx.children else {
                        continue;
                    };
                    let child = if left { pl } else { pr };
                    for exits in child.ac(slot as usize, words).chunks_exact(words) {
                        self.resolve_exits(exits, r, arena, scratch);
                    }
                }
            }
        }
    }

    /// Exit states returned by a child must all resolve at the current
    /// node: pushes the minimal unions over one choice of resolution per
    /// exit state into `scratch.cands` (nothing when some exit state
    /// cannot resolve yet). The intermediate antichains live in the
    /// scratch `pool` row arena.
    fn resolve_exits(
        &self,
        exits: &[u64],
        r: &[Vec<RowRef>],
        arena: &[u64],
        scratch: &mut Scratch,
    ) {
        let words = self.words;
        let Scratch {
            cands,
            row,
            pool,
            acc,
            tmp,
        } = scratch;
        pool.clear();
        pool.resize(words, 0); // row 0 = the empty union
        acc.clear();
        acc.push(RowRef { id: 0, pc: 0 });
        for q in row_bits(exits) {
            if r[q].is_empty() {
                return; // this exit state cannot resolve (yet)
            }
            tmp.clear();
            for x in acc.iter() {
                let xs = x.id as usize * words;
                for y in &r[q] {
                    let ya = row_at(arena, y.id, words);
                    row.clear();
                    row.extend(pool[xs..xs + words].iter().zip(ya).map(|(a, b)| a | b));
                    ac_insert_min(tmp, pool, words, row);
                }
            }
            std::mem::swap(acc, tmp);
        }
        for e in acc.iter() {
            let s = e.id as usize * words;
            cands.extend_from_slice(&pool[s..s + words]);
        }
    }

    /// Chaotic-iteration worklist loop: pops a state, recomputes its
    /// candidates, and re-enqueues its readers when its antichain grew.
    /// On entry `wl` must list every state whose candidates may exceed `r`
    /// and `inq` must flag exactly the listed states; on exit `wl` is
    /// empty and `inq` all-false again, ready for the next run.
    #[allow(clippy::too_many_arguments)]
    fn solve(
        &self,
        ctx: &FixCtx<'_>,
        r: &mut [Vec<RowRef>],
        arena: &mut Vec<u64>,
        wl: &mut Vec<u32>,
        inq: &mut [bool],
        scratch: &mut Scratch,
        stats: &mut JobStats,
    ) {
        let words = self.words;
        stats.peak = stats.peak.max(wl.len() as u64);
        while let Some(q) = wl.pop() {
            inq[q as usize] = false;
            stats.steps += 1;
            self.candidates(ctx, r, arena, q as usize, scratch);
            let cands = std::mem::take(&mut scratch.cands);
            let mut grew = false;
            for chunk in cands.chunks_exact(words) {
                grew |= ac_insert_min(&mut r[q as usize], arena, words, chunk);
            }
            scratch.cands = cands;
            scratch.cands.clear();
            if !grew {
                continue;
            }
            for &d in ctx.table.rdeps(q as usize) {
                if !inq[d as usize] {
                    inq[d as usize] = true;
                    wl.push(d);
                }
            }
            if let Some(deps) = ctx.down_rdeps.get(q as usize) {
                for &d in deps {
                    if !inq[d as usize] {
                        inq[d as usize] = true;
                        wl.push(d);
                    }
                }
            }
            stats.peak = stats.peak.max(wl.len() as u64);
        }
    }

    /// Extends the root least fixpoint with a child position's up-move
    /// exits, solving into the reusable `pos` buffer. Sound because the
    /// root solution is below the positional least fixpoint and chaotic
    /// iteration from any such point converges to it — only the up
    /// increments need re-propagation. The `pos` lists share the arena
    /// with `root` (rows are immutable, so the restart copies refs, not
    /// rows). Returns `None` when there are no up-moves for this position
    /// (behaviour = root's).
    #[allow(clippy::too_many_arguments)]
    fn extend_up(
        &self,
        ctx: &FixCtx<'_>,
        root: &[Vec<RowRef>],
        pos: &mut [Vec<RowRef>],
        arena: &mut Vec<u64>,
        ups: &[(u32, u32)],
        wl: &mut Vec<u32>,
        inq: &mut [bool],
        scratch: &mut Scratch,
        stats: &mut JobStats,
    ) -> Option<FlatBehavior> {
        if ups.is_empty() {
            return None;
        }
        for (p, r) in pos.iter_mut().zip(root) {
            p.clone_from(r);
        }
        for &(q, target) in ups {
            scratch.row.clear();
            scratch.row.resize(self.words, 0);
            scratch.row[target as usize / 64] |= 1u64 << (target as usize % 64);
            if !ac_insert_min(&mut pos[q as usize], arena, self.words, &scratch.row) {
                continue;
            }
            for &d in ctx.table.rdeps(q as usize) {
                if !inq[d as usize] {
                    inq[d as usize] = true;
                    wl.push(d);
                }
            }
            if let Some(deps) = ctx.down_rdeps.get(q as usize) {
                for &d in deps {
                    if !inq[d as usize] {
                        inq[d as usize] = true;
                        wl.push(d);
                    }
                }
            }
        }
        self.solve(ctx, pos, arena, wl, inq, scratch, stats);
        Some(flatten(pos, arena, self.words))
    }

    /// One full composition: the root fixpoint (restarted from the symbol
    /// base) plus its left/right up-move extensions. Pure apart from the
    /// workspace buffers — reads only frozen tables and projections.
    fn compose(
        &self,
        table_idx: u32,
        children: Option<(&Projection, &Projection)>,
        ws: &mut Workspace,
        stats: &mut JobStats,
    ) -> RawTriple {
        let table = &self.tables[table_idx as usize];
        let words = self.words;
        let Workspace {
            arena,
            root,
            pos,
            wl,
            inq,
            scratch,
            down_rdeps,
        } = ws;
        // Seed root from the symbol base: one slice copy plus ref lists.
        arena.clear();
        arena.extend_from_slice(&table.base.rows);
        for (q, list) in root.iter_mut().enumerate() {
            list.clear();
            let (s, e) = (table.base.offsets[q], table.base.offsets[q + 1]);
            list.extend((s..e).map(|i| RowRef {
                id: i,
                pc: table.base.pcs[i as usize],
            }));
        }
        let use_down = table.has_down && children.is_some();
        if use_down {
            fill_down_rdeps(
                table,
                children.expect("gated on children"),
                words,
                down_rdeps,
            );
        }
        let ctx = FixCtx {
            table,
            children,
            down_rdeps: if use_down { down_rdeps.as_slice() } else { &[] },
        };
        // Root run: only the `Down` candidates can exceed the base.
        if use_down && !table.down_states.is_empty() {
            for &q in &table.down_states {
                inq[q as usize] = true;
                wl.push(q);
            }
            self.solve(&ctx, root, arena, wl, inq, scratch, stats);
        }
        // Accepting iff the initial configuration resolves with no exits
        // (the popcount-sorted list puts an empty row first if present).
        let accepting = root[self.initial].first().is_some_and(|e| e.pc == 0);
        let left = self.extend_up(
            &ctx,
            root,
            pos,
            arena,
            &table.up_left,
            wl,
            inq,
            scratch,
            stats,
        );
        let right = self.extend_up(
            &ctx,
            root,
            pos,
            arena,
            &table.up_right,
            wl,
            inq,
            scratch,
            stats,
        );
        let rows = (arena.len() / words) as u64;
        stats.rows += rows;
        stats.row_peak = stats.row_peak.max(rows);
        RawTriple {
            root: flatten(root, arena, words),
            left,
            right,
            accepting,
        }
    }
}

/// A composition job: dense symbol-table id plus the children's projection
/// ids (`None` for a leaf).
#[derive(Clone, Copy)]
struct Job {
    table: u32,
    children: Option<(ProjId, ProjId)>,
}

/// Evaluates a batch of composition jobs in job order, so the interning
/// that follows sees results in canonical order.
fn compute_batch(
    walker: &Walker,
    jobs: &[Job],
    projs: &[Projection],
    agg: &mut JobStats,
) -> Vec<RawTriple> {
    let jour = journal::enabled();
    let mut ws = Workspace::new(walker.n_states);
    jobs.iter()
        .map(|job| {
            if jour {
                journal::begin("walk.job");
            }
            let children = job
                .children
                .map(|(l, r)| (&projs[l as usize], &projs[r as usize]));
            let raw = walker.compose(job.table, children, &mut ws, agg);
            if jour {
                journal::end("walk.job");
            }
            raw
        })
        .collect()
}

/// Interns a raw composition result: the root behaviour, then the
/// positional ones (which alias the root when the position admits no
/// up-moves). Called in canonical job order, so arena ids are
/// deterministic.
fn intern_raw(raw: RawTriple, behaviors: &mut BehaviorArena, words: usize) -> TripleIds {
    let root_id = behaviors.intern(raw.root, words);
    let position = |b: Option<FlatBehavior>, behaviors: &mut BehaviorArena| match b {
        Some(b) => behaviors.intern(b, words),
        None => root_id,
    };
    TripleIds {
        left: position(raw.left, behaviors),
        right: position(raw.right, behaviors),
        accepting: raw.accepting,
    }
}

/// Assigns (or retrieves) the DBTA state of an interned triple, honoring
/// the class budget exactly as the reference build did.
fn intern_triple(
    ids: TripleIds,
    triples: &mut Vec<TripleIds>,
    index: &mut FxHashMap<TripleIds, State>,
    limit: u32,
) -> Result<State, TypecheckError> {
    if let Some(&q) = index.get(&ids) {
        return Ok(q);
    }
    let q = State(triples.len() as u32);
    if q.0 >= limit {
        return Err(TypecheckError::TooManyStates { n: q.0 + 1 });
    }
    index.insert(ids, q);
    triples.push(ids);
    Ok(q)
}

/// Options for [`walking_to_dbta_with`].
#[derive(Clone, Copy, Debug)]
pub struct WalkOptions {
    /// Budget on behaviour classes (congruence states); `u32::MAX` =
    /// unlimited.
    pub limit: u32,
    /// ignored: the solver is sequential; kept because perfbench names it
    pub threads: usize,
    /// ignored: the solver is sequential; kept because perfbench names it
    pub parallel_threshold: usize,
    /// ignored: the solver is sequential; kept because perfbench names it
    pub chunk: usize,
}

impl Default for WalkOptions {
    fn default() -> Self {
        WalkOptions {
            limit: u32::MAX,
            threads: 0,
            parallel_threshold: 0,
            chunk: 0,
        }
    }
}

/// Counters describing one [`walking_to_dbta_with`] run. All fields are
/// deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Transition-table pairs `(symbol, s₁, s₂)` resolved.
    pub pairs: u64,
    /// Composition requests: one per leaf symbol plus one per
    /// transition-table pair (`compositions = memo_hits + memo_misses`).
    pub compositions: u64,
    /// Pair requests resolved from the projected-key memo without a
    /// fixpoint run.
    pub memo_hits: u64,
    /// Requests that *did* require a fixpoint run: the leaf symbols plus
    /// the distinct projected memo keys.
    pub memo_misses: u64,
    /// Total worklist pops across all fixpoint runs.
    pub fixpoint_steps: u64,
    /// Peak worklist length of any single fixpoint run.
    pub worklist_peak: u64,
    /// Frontier generations (compute → intern → replay cycles).
    pub rounds: u64,
    /// ignored: the solver is sequential; kept because perfbench names it
    pub parallel_batches: u64,
    /// Distinct exit-set rows (masks) occurring in interned behaviours.
    pub masks_interned: u64,
    /// Distinct behaviours interned.
    pub behaviors_interned: u64,
    /// States of the resulting DBTA.
    pub dbta_states: u64,
    /// Bitset row width of the kernel, in `u64` words.
    pub words: u64,
    /// Total arena rows written across all compositions (live + shadowed).
    pub kernel_rows: u64,
    /// Peak arena rows of any single composition.
    pub kernel_row_peak: u64,
    /// Distinct behaviour projections interned for memo keys.
    pub projections_interned: u64,
}

impl WalkStats {
    /// Fraction of composition requests resolved from the memo, in
    /// `[0, 1]`. Defined as `0.0` when no requests were made at all (a
    /// trivial automaton), so the value is always finite — never the `NaN`
    /// a bare `hits / (hits + misses)` would produce in JSON/bench output.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Converts a 1-pebble (branching tree-walking) automaton into an
/// equivalent deterministic bottom-up tree automaton, returning the
/// construction counters alongside.
///
/// Errors when `k ≠ 1` or the behaviour-class budget is exceeded. All
/// interning happens in a canonical order, so the output is a pure
/// function of the automaton and the budget.
pub fn walking_to_dbta_with(
    a: &PebbleAutomaton,
    opts: &WalkOptions,
) -> Result<(Dbta, WalkStats), TypecheckError> {
    let mut job_stats = JobStats::default();
    let walker = Walker::new(a, &mut job_stats)?;
    let limit = opts.limit;
    let alphabet = a.input_alphabet();
    let words = walker.words;

    let mut behaviors = BehaviorArena::default();
    let mut projector = Projector::new(walker.tables.len());
    let mut triples: Vec<TripleIds> = Vec::new();
    let mut index: FxHashMap<TripleIds, State> = FxHashMap::default();
    let mut memo: FxHashMap<(u32, ProjId, ProjId), TripleIds> = FxHashMap::default();
    let mut leaf: FxHashMap<Symbol, State> = FxHashMap::default();
    let mut node: FxHashMap<(Symbol, State, State), State> = FxHashMap::default();
    let mut rounds = 0u64;

    // Leaf triples, in alphabet order (canonical).
    let leaf_syms = alphabet.leaves();
    let leaf_jobs: Vec<Job> = leaf_syms
        .iter()
        .map(|&s| Job {
            table: walker.slot(s),
            children: None,
        })
        .collect();
    let raws = compute_batch(&walker, &leaf_jobs, &projector.arena.projs, &mut job_stats);
    for (&sym, raw) in leaf_syms.iter().zip(raws) {
        let ids = intern_raw(raw, &mut behaviors, words);
        let q = intern_triple(ids, &mut triples, &mut index, limit)?;
        leaf.insert(sym, q);
    }

    let binaries = alphabet.binaries();
    // Incremental scan state: `scanned` counts triples whose pair-space
    // the frontier has already enumerated, and `col[s]` is the replay's
    // per-row column cursor. Both only advance, so across the whole
    // construction every `(x, y)` pair is enumerated exactly once by the
    // frontier and processed exactly once by the replay — rescanning
    // per round was the dominant sequential cost on saturated frontiers
    // (O(rounds · m²) hash probes for an m-class machine).
    let mut scanned = 0usize;
    let mut col: Vec<u32> = Vec::new();
    loop {
        rounds += 1;
        // Frontier: every composition key over pairs involving a triple
        // interned since the last scan — a pair between older triples
        // already has its key in `memo` (enumerated in a previous round),
        // so only the new rows and columns can need jobs. Enumeration
        // order (new-triple-major, `(t, 0..=t)` then `(0..t, t)`, symbols
        // innermost) is a pure function of the interned-triple sequence;
        // jobs are deduped on the projected key so identical jobs solve
        // once per round.
        let mut jobs: Vec<Job> = Vec::new();
        let mut seen: FxHashSet<(u32, ProjId, ProjId)> = FxHashSet::default();
        let len = triples.len();
        for t in scanned..len {
            for p in 0..=2 * t {
                let (x, y) = if p <= t { (t, p) } else { (p - t - 1, t) };
                for &sym in &binaries {
                    if node.contains_key(&(sym, State(x as u32), State(y as u32))) {
                        continue;
                    }
                    let ti = walker.slot(sym);
                    let key = (
                        ti,
                        projector.id(&walker, &behaviors, ti, 0, triples[x].left),
                        projector.id(&walker, &behaviors, ti, 1, triples[y].right),
                    );
                    if !memo.contains_key(&key) && seen.insert(key) {
                        jobs.push(Job {
                            table: ti,
                            children: Some((key.1, key.2)),
                        });
                    }
                }
            }
        }
        scanned = len;
        if journal::enabled() {
            journal::instant("walk.round");
            journal::counter("walk.frontier_jobs", jobs.len() as u64);
        }
        if !jobs.is_empty() {
            let raws = compute_batch(&walker, &jobs, &projector.arena.projs, &mut job_stats);
            for (job, raw) in jobs.iter().zip(raws) {
                let (l, r) = job.children.expect("binary job");
                let ids = intern_raw(raw, &mut behaviors, words);
                memo.insert((job.table, l, r), ids);
            }
        }

        // Canonical replay: interns triples and transitions in a fixed
        // deterministic order — row-major over the triple table, each row
        // advancing its persistent column cursor, repeated in passes until
        // every row has caught up with the (growing) table. The order is a
        // pure function of the interned-triple sequence, so the DBTA
        // numbering is deterministic. Aborts (for
        // another frontier round) at the first composition not yet
        // memoized — necessarily one involving a triple first discovered
        // during this very replay; the cursors make the retry resume where
        // it stopped instead of rescanning resolved pairs.
        let mut complete = true;
        'replay: loop {
            if col.len() < triples.len() {
                col.resize(triples.len(), 0);
            }
            let mut progressed = false;
            let mut s1i = 0usize;
            while s1i < triples.len() {
                let s1 = State(s1i as u32);
                while (col[s1i] as usize) < triples.len() {
                    let s2 = State(col[s1i]);
                    for &sym in &binaries {
                        for (x, y) in [(s1, s2), (s2, s1)] {
                            if node.contains_key(&(sym, x, y)) {
                                continue;
                            }
                            let ti = walker.slot(sym);
                            let key = (
                                ti,
                                projector.id(&walker, &behaviors, ti, 0, triples[x.index()].left),
                                projector.id(&walker, &behaviors, ti, 1, triples[y.index()].right),
                            );
                            let Some(&ids) = memo.get(&key) else {
                                complete = false;
                                break 'replay;
                            };
                            let q = intern_triple(ids, &mut triples, &mut index, limit)?;
                            node.insert((sym, x, y), q);
                        }
                    }
                    col[s1i] += 1;
                    progressed = true;
                    if col.len() < triples.len() {
                        col.resize(triples.len(), 0);
                    }
                }
                s1i += 1;
            }
            if !progressed {
                break;
            }
        }
        if journal::enabled() {
            journal::counter("walk.triples", triples.len() as u64);
            journal::counter("walk.masks_arena", behaviors.rows_seen.len() as u64);
            journal::counter("walk.behaviors_arena", behaviors.behaviors.len() as u64);
            journal::counter("walk.projections_arena", projector.arena.projs.len() as u64);
            journal::counter("walk.memo_misses", (leaf.len() + memo.len()) as u64);
            journal::counter(
                "walk.memo_hits",
                node.len().saturating_sub(memo.len()) as u64,
            );
        }
        if complete {
            break;
        }
    }

    let finals: StateSet = triples
        .iter()
        .enumerate()
        .filter(|(_, t)| t.accepting)
        .map(|(i, _)| State(i as u32))
        .collect();
    let stats = WalkStats {
        pairs: node.len() as u64,
        compositions: (leaf.len() + node.len()) as u64,
        memo_hits: (node.len() - memo.len()) as u64,
        memo_misses: (leaf.len() + memo.len()) as u64,
        fixpoint_steps: job_stats.steps,
        worklist_peak: job_stats.peak,
        rounds,
        masks_interned: behaviors.rows_seen.len() as u64,
        behaviors_interned: behaviors.behaviors.len() as u64,
        dbta_states: triples.len() as u64,
        words: words as u64,
        kernel_rows: job_stats.rows,
        kernel_row_peak: job_stats.row_peak,
        projections_interned: projector.arena.projs.len() as u64,
        ..WalkStats::default()
    };
    let d = Dbta::from_parts(alphabet, triples.len() as u32, leaf, node, finals);
    Ok((d, stats))
}

/// Converts a 1-pebble (branching tree-walking) automaton into an
/// equivalent deterministic bottom-up tree automaton.
///
/// Errors when `k ≠ 1`. The `limit` bounds the number of behaviour classes
/// (congruence states) explored.
pub fn walking_to_dbta_limited(a: &PebbleAutomaton, limit: u32) -> Result<Dbta, TypecheckError> {
    walking_to_dbta_with(
        a,
        &WalkOptions {
            limit,
            ..Default::default()
        },
    )
    .map(|(d, _)| d)
}

/// [`walking_to_dbta_limited`] without a class budget.
pub fn walking_to_dbta(a: &PebbleAutomaton) -> Result<Dbta, TypecheckError> {
    walking_to_dbta_limited(a, u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmltc_core::accepts;
    use xmltc_core::machine::{AutomatonBuilder, Guard, SymSpec};
    use xmltc_trees::{Alphabet, BinaryTree};

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    const TREES: [&str; 10] = [
        "x",
        "y",
        "f(x, y)",
        "f(y, x)",
        "f(x, x)",
        "f(x, f(x, x))",
        "f(f(y, x), x)",
        "f(f(x, x), f(x, y))",
        "f(f(x, y), f(y, x))",
        "f(f(f(x, x), x), y)",
    ];

    fn agree(a: &PebbleAutomaton) {
        let al = a.input_alphabet().clone();
        let (d, s) = walking_to_dbta_with(a, &WalkOptions::default()).unwrap();
        for src in TREES {
            let t = BinaryTree::parse(src, &al).unwrap();
            assert_eq!(
                d.accepts(&t).unwrap(),
                accepts(a, &t).unwrap(),
                "disagreement on {src}"
            );
        }
        // Accounting invariants: every request is a hit or a miss, and
        // there is one request per leaf symbol plus one per pair.
        assert_eq!(s.memo_hits + s.memo_misses, s.compositions);
        assert_eq!(s.compositions, s.pairs + 2 /* leaves */);
    }

    #[test]
    fn memo_hit_rate_is_always_finite() {
        // The 0/0 case — no requests at all — must not be NaN.
        let empty = WalkStats::default();
        assert_eq!(empty.memo_hit_rate(), 0.0);
        assert!(empty.memo_hit_rate().is_finite());
        let s = WalkStats {
            memo_hits: 3,
            memo_misses: 1,
            ..WalkStats::default()
        };
        assert_eq!(s.memo_hit_rate(), 0.75);
        let all_miss = WalkStats {
            memo_misses: 5,
            ..WalkStats::default()
        };
        assert_eq!(all_miss.memo_hit_rate(), 0.0);
    }

    // ---- dense kernel unit suite ----------------------------------------

    /// Builds a row from bit positions at the given word width.
    fn row(bits: &[usize], words: usize) -> Vec<u64> {
        let mut r = vec![0u64; words];
        for &b in bits {
            r[b / 64] |= 1u64 << (b % 64);
        }
        r
    }

    #[test]
    fn row_ops_multi_word() {
        let words = 5; // a 300-state machine's width
        let a = row(&[0, 64, 190, 299], words);
        let b = row(&[0, 64, 190, 262, 299], words);
        assert!(row_subset(&a, &b));
        assert!(!row_subset(&b, &a));
        assert!(row_subset(&a, &a));
        assert_eq!(row_popcount(&a), 4);
        assert_eq!(row_popcount(&b), 5);
        assert_eq!(row_bits(&b).collect::<Vec<_>>(), vec![0, 64, 190, 262, 299]);
        let empty = row(&[], words);
        assert!(row_subset(&empty, &a));
        assert_eq!(row_popcount(&empty), 0);
        assert_eq!(row_bits(&empty).count(), 0);
    }

    #[test]
    fn ac_insert_rejects_supersets() {
        let words = 2;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[3], words)));
        // A superset of an existing row adds nothing.
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[3, 70], words)
        ));
        // An identical row adds nothing (equal popcount, subset = equality).
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[3], words)
        ));
        assert_eq!(ac.len(), 1);
    }

    #[test]
    fn ac_insert_drops_dominated_rows() {
        let words = 2;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 2, 65], words)
        ));
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 3, 66], words)
        ));
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[4, 5], words)
        ));
        // {1, 65} kills {1, 2, 65} but not {1, 3, 66} or {4, 5}.
        assert!(ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[1, 65], words)
        ));
        assert_eq!(ac.len(), 3);
        // The empty row dominates everything.
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[], words)));
        assert_eq!(ac.len(), 1);
        assert_eq!(ac[0].pc, 0);
        // Nothing can be added past the empty row.
        assert!(!ac_insert_min(
            &mut ac,
            &mut arena,
            words,
            &row(&[7], words)
        ));
    }

    #[test]
    fn ac_insert_keeps_popcount_order() {
        let words = 1;
        let mut arena: Vec<u64> = Vec::new();
        let mut ac: Vec<RowRef> = Vec::new();
        for bits in [&[1usize, 2, 3][..], &[4][..], &[5, 6][..]] {
            assert!(ac_insert_min(&mut ac, &mut arena, words, &row(bits, words)));
        }
        let pcs: Vec<u32> = ac.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![1, 2, 3]);
        // Incomparable same-popcount rows coexist.
        assert!(ac_insert_min(&mut ac, &mut arena, words, &row(&[7], words)));
        assert_eq!(
            ac.iter().map(|e| e.pc).collect::<Vec<_>>(),
            vec![1, 1, 2, 3]
        );
    }

    /// End-to-end over a >256-state machine (words = 5 > the old inline
    /// mask width): an or-search chained through 300 `Stay` states.
    #[test]
    fn wide_machine_multi_word_rows() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let n = 300usize;
        let states: Vec<_> = (0..n)
            .map(|i| b.state(&format!("s{i}"), 1).unwrap())
            .collect();
        b.set_initial(states[0]);
        for i in 0..n - 1 {
            b.move_rule(
                SymSpec::Any,
                states[i],
                Guard::any(),
                Move::Stay,
                states[i + 1],
            )
            .unwrap();
        }
        let last = states[n - 1];
        b.branch0(SymSpec::One(y), last, Guard::any()).unwrap();
        b.move_rule(
            SymSpec::Binaries,
            last,
            Guard::any(),
            Move::DownLeft,
            states[0],
        )
        .unwrap();
        b.move_rule(
            SymSpec::Binaries,
            last,
            Guard::any(),
            Move::DownRight,
            states[0],
        )
        .unwrap();
        let a = b.build().unwrap();
        let (_, s) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        assert_eq!(s.words, 5);
        agree(&a);
    }

    /// The projected memo key collapses pairs that agree on the symbol's
    /// `Down` targets — in particular, *every* right child here, because
    /// `f` has no `DownRight` rules at all.
    #[test]
    fn projected_memo_hits_on_repeating_structure() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("walk", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        let a = b.build().unwrap();
        let (_, s) = walking_to_dbta_with(&a, &WalkOptions::default()).unwrap();
        assert!(s.memo_hits > 0, "projection must collapse right children");
        assert_eq!(s.memo_hits + s.memo_misses, s.compositions);
        assert!(s.projections_interned > 0);
    }

    /// Walks down-left-only to check the leftmost leaf is x.
    #[test]
    fn leftmost_leaf_x() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("walk", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        agree(&b.build().unwrap());
    }

    /// Or-search: some y leaf exists.
    #[test]
    fn some_y() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("search", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(y), q, Guard::any()).unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.move_rule(SymSpec::Binaries, q, Guard::any(), Move::DownRight, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// And-branching: all leaves x.
    #[test]
    fn all_x() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("check", 1).unwrap();
        let l = b.state("left", 1).unwrap();
        let r = b.state("right", 1).unwrap();
        b.set_initial(q);
        b.branch0(SymSpec::One(x), q, Guard::any()).unwrap();
        b.branch2(SymSpec::Binaries, q, Guard::any(), l, r).unwrap();
        b.move_rule(SymSpec::Binaries, l, Guard::any(), Move::DownLeft, q)
            .unwrap();
        b.move_rule(SymSpec::Binaries, r, Guard::any(), Move::DownRight, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// A genuinely two-way machine: walk to the leftmost leaf; if it is y,
    /// walk all the way back up and then check the rightmost leaf is also
    /// y. Exercises up-moves and exit composition.
    #[test]
    fn two_way_walk() {
        let al = alpha();
        let y = al.get("y").unwrap();
        let mut b = AutomatonBuilder::new(&al, 1);
        let down = b.state("down", 1).unwrap();
        let up = b.state("up", 1).unwrap();
        let right = b.state("right", 1).unwrap();
        b.set_initial(down);
        b.move_rule(SymSpec::Binaries, down, Guard::any(), Move::DownLeft, down)
            .unwrap();
        // On a y leftmost leaf: climb.
        b.move_rule(SymSpec::One(y), down, Guard::any(), Move::UpLeft, up)
            .unwrap();
        b.move_rule(SymSpec::One(y), down, Guard::any(), Move::UpRight, up)
            .unwrap();
        b.move_rule(SymSpec::Any, up, Guard::any(), Move::UpLeft, up)
            .unwrap();
        b.move_rule(SymSpec::Any, up, Guard::any(), Move::UpRight, up)
            .unwrap();
        // From wherever climbing stops... we can't test rootness, so `up`
        // also nondeterministically switches to descending right.
        b.move_rule(SymSpec::Binaries, up, Guard::any(), Move::Stay, right)
            .unwrap();
        b.move_rule(
            SymSpec::Binaries,
            right,
            Guard::any(),
            Move::DownRight,
            right,
        )
        .unwrap();
        b.branch0(SymSpec::One(y), right, Guard::any()).unwrap();
        // Degenerate single-leaf tree: y alone accepts via the right state?
        // No — initial `down` on a leaf y has no applicable rule except the
        // up-moves, which fail at the root: single y is rejected. That is
        // the machine's semantics; the theorem only asks for agreement.
        agree(&b.build().unwrap());
    }

    /// Stay-cycles must not diverge or accept spuriously.
    #[test]
    fn stay_cycle() {
        let al = alpha();
        let mut b = AutomatonBuilder::new(&al, 1);
        let q = b.state("a", 1).unwrap();
        let p = b.state("b", 1).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::Stay, p)
            .unwrap();
        b.move_rule(SymSpec::Any, p, Guard::any(), Move::Stay, q)
            .unwrap();
        agree(&b.build().unwrap());
    }

    /// k = 2 machines are rejected by this route.
    #[test]
    fn requires_one_pebble() {
        let al = alpha();
        let mut b = AutomatonBuilder::new(&al, 2);
        let q = b.state("q", 1).unwrap();
        let q2 = b.state("q2", 2).unwrap();
        b.set_initial(q);
        b.move_rule(SymSpec::Any, q, Guard::any(), Move::PlaceNew, q2)
            .unwrap();
        b.branch0(SymSpec::Any, q2, Guard::any()).unwrap();
        let a = b.build().unwrap();
        assert!(matches!(
            walking_to_dbta(&a),
            Err(TypecheckError::NeedsOnePebble { k: 2 })
        ));
    }
}

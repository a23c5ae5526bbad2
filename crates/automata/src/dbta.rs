//! Deterministic bottom-up tree automata.

use crate::nta::Nta;
use crate::state::{State, StateSet};
use std::sync::Arc;
use xmltc_trees::{Alphabet, BinaryTree, FxHashMap, Symbol, TreeError};

/// A deterministic bottom-up tree automaton.
///
/// The transition maps may be partial; a missing entry means the run dies
/// (reject). [`Dbta::complete`] adds an explicit sink.
/// [`Nta::determinize`] produces automata that are total over their
/// reachable state space, which is all the boolean operations need.
#[derive(Clone, Debug)]
pub struct Dbta {
    alphabet: Arc<Alphabet>,
    n_states: u32,
    leaf: FxHashMap<Symbol, State>,
    node: FxHashMap<(Symbol, State, State), State>,
    finals: StateSet,
}

/// Structural equality: same alphabet, state count, transition tables, and
/// final set — i.e. literally the same automaton, not mere language
/// equivalence.
impl PartialEq for Dbta {
    fn eq(&self, other: &Self) -> bool {
        Alphabet::same(&self.alphabet, &other.alphabet)
            && self.n_states == other.n_states
            && self.leaf == other.leaf
            && self.node == other.node
            && self.finals == other.finals
    }
}

impl Eq for Dbta {}

impl Dbta {
    /// Assembles a deterministic automaton from parts.
    pub fn from_parts(
        alphabet: &Arc<Alphabet>,
        n_states: u32,
        leaf: FxHashMap<Symbol, State>,
        node: FxHashMap<(Symbol, State, State), State>,
        finals: StateSet,
    ) -> Dbta {
        Dbta {
            alphabet: Arc::clone(alphabet),
            n_states,
            leaf,
            node,
            finals,
        }
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Number of transition-table entries.
    pub fn n_transitions(&self) -> usize {
        self.leaf.len() + self.node.len()
    }

    /// The final states.
    pub fn finals(&self) -> &StateSet {
        &self.finals
    }

    /// The state of a leaf labeled `a`, if defined.
    pub fn leaf_state(&self, a: Symbol) -> Option<State> {
        self.leaf.get(&a).copied()
    }

    /// The state of an `a`-node over `(q₁, q₂)`, if defined.
    pub fn node_state(&self, a: Symbol, q1: State, q2: State) -> Option<State> {
        self.node.get(&(a, q1, q2)).copied()
    }

    /// The full internal-transition table (read-only view).
    pub fn node_transitions_map(&self) -> &FxHashMap<(Symbol, State, State), State> {
        &self.node
    }

    /// Runs the automaton; `None` when the run dies.
    pub fn state_of(&self, t: &BinaryTree) -> Result<Option<State>, TreeError> {
        if !Alphabet::same(&self.alphabet, t.alphabet()) {
            return Err(TreeError::AlphabetMismatch);
        }
        let mut states: Vec<Option<State>> = vec![None; t.len()];
        for i in 0..t.len() {
            let n = xmltc_trees::NodeId(i as u32);
            let a = t.symbol(n);
            states[i] = match t.children(n) {
                None => self.leaf_state(a),
                Some((l, r)) => match (states[l.index()], states[r.index()]) {
                    (Some(q1), Some(q2)) => self.node_state(a, q1, q2),
                    _ => None,
                },
            };
        }
        Ok(states[t.root().index()])
    }

    /// Membership test.
    pub fn accepts(&self, t: &BinaryTree) -> Result<bool, TreeError> {
        Ok(self.state_of(t)?.is_some_and(|q| self.finals.contains(q)))
    }

    /// Complement by flipping final states.
    ///
    /// Correct when the automaton is total over its reachable space —
    /// guaranteed for automata from [`Nta::determinize`] and
    /// [`Dbta::complete`]. For hand-built partial automata, call
    /// [`Dbta::complete`] first.
    pub fn complement(&self) -> Dbta {
        let mut out = self.complete();
        out.finals = (0..out.n_states)
            .map(State)
            .filter(|q| !out.finals.contains(*q))
            .collect();
        out
    }

    /// Adds an explicit non-final sink so the transition function is total
    /// on all of `Σ × Q × Q`. Idempotent.
    pub fn complete(&self) -> Dbta {
        let leaves = self.alphabet.leaves();
        let binaries = self.alphabet.binaries();
        let total = self.leaf.len() == leaves.len()
            && self.node.len() == binaries.len() * (self.n_states as usize).pow(2);
        if total {
            return self.clone();
        }
        let sink = State(self.n_states);
        let n = self.n_states + 1;
        let mut leaf = self.leaf.clone();
        for a in leaves {
            leaf.entry(a).or_insert(sink);
        }
        let mut node = self.node.clone();
        for a in binaries {
            for q1 in 0..n {
                for q2 in 0..n {
                    node.entry((a, State(q1), State(q2))).or_insert(sink);
                }
            }
        }
        Dbta {
            alphabet: Arc::clone(&self.alphabet),
            n_states: n,
            leaf,
            node,
            finals: self.finals.clone(),
        }
    }

    /// Views the automaton as a nondeterministic one.
    pub fn to_nta(&self) -> Nta {
        let mut out = Nta::new(&self.alphabet, self.n_states);
        for (&a, &q) in &self.leaf {
            out.add_leaf(a, q);
        }
        for (&(a, q1, q2), &q) in &self.node {
            out.add_node(a, q1, q2, q);
        }
        for q in self.finals.iter() {
            out.add_final(q);
        }
        out
    }

    /// Emptiness test (via reachability).
    pub fn is_empty(&self) -> bool {
        self.to_nta().is_empty()
    }

    /// Myhill-Nerode style minimization by partition refinement, over the
    /// completed, reachable part of the automaton. The result accepts the
    /// same language with the minimum number of states.
    pub fn minimize(&self) -> Dbta {
        let d = self.complete().restrict_reachable();
        let n = d.n_states as usize;
        if n == 0 {
            return d;
        }
        let binaries = d.alphabet.binaries();
        let mut class: Vec<u32> = (0..n)
            .map(|i| d.finals.contains(State(i as u32)) as u32)
            .collect();
        loop {
            // Signature of q: its class plus, for every symbol and *every*
            // partner state on either side, the destination's class.
            // (Representatives-per-class would be unsound mid-refinement:
            // two states of one class may still lead to different classes.)
            let mut sig_index: std::collections::BTreeMap<(u32, Vec<u32>), u32> =
                std::collections::BTreeMap::new();
            let mut next = vec![0u32; n];
            for q in 0..n {
                let mut sig = Vec::with_capacity(binaries.len() * 2 * n);
                for &a in &binaries {
                    for r in 0..n {
                        let left = d
                            .node_state(a, State(q as u32), State(r as u32))
                            .expect("complete");
                        let right = d
                            .node_state(a, State(r as u32), State(q as u32))
                            .expect("complete");
                        sig.push(class[left.index()]);
                        sig.push(class[right.index()]);
                    }
                }
                let key = (class[q], sig);
                let fresh = sig_index.len() as u32;
                next[q] = *sig_index.entry(key).or_insert(fresh);
            }
            if next == class {
                break;
            }
            class = next;
        }
        let n_classes = class.iter().copied().max().unwrap_or(0) + 1;
        let mut leaf = FxHashMap::default();
        for (&a, &q) in &d.leaf {
            leaf.insert(a, State(class[q.index()]));
        }
        let mut node = FxHashMap::default();
        for (&(a, q1, q2), &q) in &d.node {
            node.insert(
                (a, State(class[q1.index()]), State(class[q2.index()])),
                State(class[q.index()]),
            );
        }
        let finals: StateSet = d.finals.iter().map(|q| State(class[q.index()])).collect();
        Dbta {
            alphabet: Arc::clone(&d.alphabet),
            n_states: n_classes,
            leaf,
            node,
            finals,
        }
    }

    /// Restricts to bottom-up reachable states (renumbering).
    fn restrict_reachable(&self) -> Dbta {
        let nta = self.to_nta();
        let reach = nta.reachable_states();
        let mut remap: Vec<Option<State>> = vec![None; self.n_states as usize];
        let mut next = 0u32;
        for q in reach.iter() {
            remap[q.index()] = Some(State(next));
            next += 1;
        }
        let mut leaf = FxHashMap::default();
        for (&a, &q) in &self.leaf {
            if let Some(nq) = remap[q.index()] {
                leaf.insert(a, nq);
            }
        }
        let mut node = FxHashMap::default();
        for (&(a, q1, q2), &q) in &self.node {
            if let (Some(n1), Some(n2), Some(nq)) =
                (remap[q1.index()], remap[q2.index()], remap[q.index()])
            {
                node.insert((a, n1, n2), nq);
            }
        }
        let finals = self
            .finals
            .iter()
            .filter_map(|q| remap[q.index()])
            .collect();
        Dbta {
            alphabet: Arc::clone(&self.alphabet),
            n_states: next,
            leaf,
            node,
            finals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> Arc<Alphabet> {
        Alphabet::ranked(&["x", "y"], &["f"])
    }

    /// Deterministic automaton tracking "some y below" (2 states).
    fn some_y(al: &Arc<Alphabet>) -> Dbta {
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        let mut leaf = FxHashMap::default();
        leaf.insert(x, State(0));
        leaf.insert(y, State(1));
        let mut node = FxHashMap::default();
        for (l, r, o) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)] {
            node.insert((f, State(l), State(r)), State(o));
        }
        Dbta::from_parts(al, 2, leaf, node, StateSet::from_iter_canon([State(1)]))
    }

    fn t(al: &Arc<Alphabet>, s: &str) -> BinaryTree {
        BinaryTree::parse(s, al).unwrap()
    }

    #[test]
    fn deterministic_run() {
        let al = alpha();
        let d = some_y(&al);
        assert_eq!(d.state_of(&t(&al, "x")).unwrap(), Some(State(0)));
        assert_eq!(d.state_of(&t(&al, "f(x, y)")).unwrap(), Some(State(1)));
        assert!(d.accepts(&t(&al, "f(f(x, x), y)")).unwrap());
        assert!(!d.accepts(&t(&al, "f(x, x)")).unwrap());
    }

    #[test]
    fn complement_total() {
        let al = alpha();
        let c = some_y(&al).complement();
        assert!(c.accepts(&t(&al, "x")).unwrap());
        assert!(!c.accepts(&t(&al, "y")).unwrap());
        assert!(c.accepts(&t(&al, "f(x, x)")).unwrap());
    }

    #[test]
    fn complete_is_idempotent() {
        let al = alpha();
        let d = some_y(&al).complete();
        assert_eq!(d.n_states(), 2); // already total
        let d2 = d.complete();
        assert_eq!(d2.n_states(), 2);
    }

    #[test]
    fn partial_automaton_completed() {
        let al = alpha();
        let x = al.get("x").unwrap();
        let f = al.get("f").unwrap();
        let mut leaf = FxHashMap::default();
        leaf.insert(x, State(0));
        let mut node = FxHashMap::default();
        node.insert((f, State(0), State(0)), State(0));
        let d = Dbta::from_parts(&al, 1, leaf, node, StateSet::from_iter_canon([State(0)]));
        // y is undefined: rejected.
        assert!(!d.accepts(&t(&al, "y")).unwrap());
        let c = d.complement();
        assert!(c.accepts(&t(&al, "y")).unwrap());
        assert!(!c.accepts(&t(&al, "f(x, x)")).unwrap());
        assert!(c.accepts(&t(&al, "f(y, x)")).unwrap());
    }

    #[test]
    fn minimize_collapses() {
        let al = alpha();
        // Build some_y but with a redundant duplicated state 2 ≡ state 1.
        let x = al.get("x").unwrap();
        let y = al.get("y").unwrap();
        let f = al.get("f").unwrap();
        let mut leaf = FxHashMap::default();
        leaf.insert(x, State(0));
        leaf.insert(y, State(1));
        let mut node = FxHashMap::default();
        for (l, r, o) in [
            (0, 0, 0),
            (0, 1, 2),
            (1, 0, 2),
            (1, 1, 2),
            (0, 2, 1),
            (2, 0, 1),
            (2, 2, 1),
            (1, 2, 2),
            (2, 1, 1),
        ] {
            node.insert((f, State(l), State(r)), State(o));
        }
        let d = Dbta::from_parts(
            &al,
            3,
            leaf,
            node,
            StateSet::from_iter_canon([State(1), State(2)]),
        );
        let m = d.minimize();
        assert!(m.n_states() <= 3);
        for src in ["x", "y", "f(x, y)", "f(f(x, y), x)", "f(x, x)"] {
            let tree = t(&al, src);
            assert_eq!(
                m.accepts(&tree).unwrap(),
                d.accepts(&tree).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn minimized_some_y_has_two_states() {
        let al = alpha();
        let m = some_y(&al).minimize();
        assert_eq!(m.n_states(), 2);
        assert!(m.accepts(&t(&al, "f(x, y)")).unwrap());
    }

    #[test]
    fn emptiness() {
        let al = alpha();
        assert!(!some_y(&al).is_empty());
        let empty = Dbta::from_parts(
            &al,
            1,
            FxHashMap::default(),
            FxHashMap::default(),
            StateSet::from_iter_canon([State(0)]),
        );
        assert!(empty.is_empty());
    }
}

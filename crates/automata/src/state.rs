//! Automaton states and canonical state sets.

use std::fmt;
use std::hash::{Hash, Hasher};

/// An automaton state: a dense index, local to its automaton.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State(pub u32);

impl State {
    /// The index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A canonical (sorted, deduplicated) set of states, usable as a hash key
/// in subset constructions.
///
/// Sets of at most one state — every target set of a deterministic
/// automaton viewed as a nondeterministic one — are stored inline, without
/// a heap allocation. `Hash`, `Eq` and `Debug` are those of the sorted
/// slice, so maps keyed by state sets lay out and print exactly as if the
/// set were a `Vec<State>`.
#[derive(Clone, Default)]
pub struct StateSet(Repr);

/// The storage behind [`StateSet`]. Canonical: `Many` holds at least two
/// states, so each set has exactly one representation.
#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(State),
    Many(Vec<State>),
}

impl StateSet {
    /// The empty set.
    pub fn new() -> Self {
        StateSet(Repr::Empty)
    }

    /// Wraps a sorted, deduplicated vector in its canonical form.
    fn from_sorted(v: Vec<State>) -> Self {
        StateSet(match v[..] {
            [] => Repr::Empty,
            [q] => Repr::One(q),
            _ => Repr::Many(v),
        })
    }

    /// Builds from an arbitrary iterator, canonicalizing. Zero or one
    /// element allocates nothing.
    pub fn from_iter_canon(iter: impl IntoIterator<Item = State>) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return StateSet::new();
        };
        let Some(second) = iter.next() else {
            return StateSet(Repr::One(first));
        };
        let mut v: Vec<State> = [first, second].into_iter().chain(iter).collect();
        v.sort_unstable();
        v.dedup();
        StateSet::from_sorted(v)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Membership test (binary search).
    pub fn contains(&self, q: State) -> bool {
        self.as_slice().binary_search(&q).is_ok()
    }

    /// Inserts a state, keeping canonical order. Returns true if inserted.
    pub fn insert(&mut self, q: State) -> bool {
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(q),
            Repr::One(p) if *p == q => return false,
            Repr::One(p) => {
                let p = *p;
                self.0 = Repr::Many(if p < q { vec![p, q] } else { vec![q, p] });
            }
            Repr::Many(v) => match v.binary_search(&q) {
                Ok(_) => return false,
                Err(i) => v.insert(i, q),
            },
        }
        true
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = State> + '_ {
        self.as_slice().iter().copied()
    }

    /// The underlying sorted slice.
    pub fn as_slice(&self) -> &[State] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(q) => std::slice::from_ref(q),
            Repr::Many(v) => v,
        }
    }

    /// Merges another set into this one.
    pub fn union_with(&mut self, other: &StateSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            use std::cmp::Ordering::*;
            match a[i].cmp(&b[j]) {
                Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        *self = StateSet::from_sorted(merged);
    }

    /// True when the two sets intersect.
    pub fn intersects(&self, other: &StateSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            use std::cmp::Ordering::*;
            match a[i].cmp(&b[j]) {
                Less => i += 1,
                Greater => j += 1,
                Equal => return true,
            }
        }
        false
    }
}

impl PartialEq for StateSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for StateSet {}

impl Hash for StateSet {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.as_slice().hash(h);
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StateSet").field(&self.as_slice()).finish()
    }
}

impl FromIterator<State> for StateSet {
    fn from_iter<T: IntoIterator<Item = State>>(iter: T) -> Self {
        StateSet::from_iter_canon(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_construction() {
        let s = StateSet::from_iter_canon([State(3), State(1), State(3), State(2)]);
        assert_eq!(s.as_slice(), &[State(1), State(2), State(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = StateSet::new();
        assert!(s.insert(State(5)));
        assert!(s.insert(State(1)));
        assert!(!s.insert(State(5)));
        assert!(s.contains(State(1)));
        assert!(!s.contains(State(2)));
        assert_eq!(s.as_slice(), &[State(1), State(5)]);
    }

    #[test]
    fn union_and_intersects() {
        let mut a = StateSet::from_iter_canon([State(1), State(3)]);
        let b = StateSet::from_iter_canon([State(2), State(3)]);
        assert!(a.intersects(&b));
        a.union_with(&b);
        assert_eq!(a.as_slice(), &[State(1), State(2), State(3)]);
        let c = StateSet::from_iter_canon([State(9)]);
        assert!(!a.intersects(&c));
        let empty = StateSet::new();
        assert!(!a.intersects(&empty));
        a.union_with(&empty);
        assert_eq!(a.len(), 3);
    }

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hash_is_slice_hash() {
        use std::hash::BuildHasher;
        for states in [&[][..], &[State(7)], &[State(1), State(4), State(9)]] {
            let s = StateSet::from_iter_canon(states.iter().copied());
            assert_eq!(hash_of(&s), hash_of(states), "{states:?}");
            let fx = xmltc_trees::FxHashMap::<StateSet, ()>::default();
            assert_eq!(
                fx.hasher().hash_one(&s),
                fx.hasher().hash_one(states),
                "{states:?}"
            );
        }
    }

    #[test]
    fn debug_matches_vec_form() {
        assert_eq!(format!("{:?}", StateSet::new()), "StateSet([])");
        assert_eq!(
            format!("{:?}", StateSet::from_iter_canon([State(1)])),
            "StateSet([q1])"
        );
        assert_eq!(
            format!("{:?}", StateSet::from_iter_canon([State(2), State(1)])),
            "StateSet([q1, q2])"
        );
    }

    #[test]
    fn small_sets_are_inline() {
        let inline = |s: &StateSet| !matches!(s.0, Repr::Many(_));
        let one = StateSet::from_iter_canon([State(3), State(3)]);
        assert!(inline(&one) && one.as_slice() == [State(3)]);
        assert!(inline(&StateSet::from_iter_canon([])));
        let mut s = StateSet::new();
        s.insert(State(2));
        assert!(inline(&s));
        assert!(!s.insert(State(2)));
        assert!(inline(&s));
        s.insert(State(1));
        assert!(!inline(&s) && s.as_slice() == [State(1), State(2)]);
        let mut u = StateSet::new();
        u.union_with(&one);
        assert!(inline(&u));
        u.union_with(&one);
        assert!(inline(&u) && u == one);
        u.union_with(&StateSet::new());
        assert!(inline(&u));
        assert!(StateSet::new().is_empty() && !one.is_empty());
    }

    #[test]
    fn fits_in_three_words() {
        assert!(std::mem::size_of::<StateSet>() <= 24);
    }
}

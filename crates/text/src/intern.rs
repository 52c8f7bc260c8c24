//! String interning: term → dense `u32` id, backed by a single byte arena.
//!
//! The text pipeline maps every token to a [`TermId`] exactly once and works
//! with dense ids from then on (DESIGN.md §10). The interner stores all term
//! bytes contiguously in one `String` arena — no per-term allocation — and
//! resolves ids back to `&str` slices for the few places that still need
//! strings (topic labels, model vocabularies, the per-term novelty hashes).
//!
//! Ids are assigned in first-appearance order, so for a fixed token stream
//! the mapping is deterministic regardless of thread count: interning is
//! always a serial pass (tokenization fans out, id assignment does not).

/// Dense id of an interned term. Plain `u32` — token sequences are stored as
/// `Vec<u32>` so kernels can gather without hashing.
pub type TermId = u32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(term: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in term.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Term → dense-id vocabulary arena (open-addressed, linear probing).
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// All term bytes, concatenated in id order.
    arena: String,
    /// `spans[id]` = byte range of term `id` within the arena.
    spans: Vec<(u32, u32)>,
    /// Hash table of `id + 1` (0 = empty slot). Power-of-two length.
    table: Vec<u32>,
}

/// Two interners are equal when they issued the same ids for the same terms
/// — i.e. the arena and spans agree. The hash table is derived state (its
/// slot layout depends on growth history) and is deliberately ignored.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena && self.spans == other.spans
    }
}

impl Eq for Interner {}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-sizes for roughly `terms` distinct terms.
    pub fn with_capacity(terms: usize) -> Self {
        let slots = (terms.max(8) * 2).next_power_of_two();
        Interner {
            arena: String::new(),
            spans: Vec::with_capacity(terms),
            table: vec![0; slots],
        }
    }

    /// The id of `term`, interning it on first sight.
    pub fn intern(&mut self, term: &str) -> TermId {
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(term) as usize) & mask;
        loop {
            match self.table[i] {
                0 => break,
                slot => {
                    let id = slot - 1;
                    if self.resolve(id) == term {
                        return id;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let id = self.spans.len() as u32;
        let start = self.arena.len() as u32;
        self.arena.push_str(term);
        self.spans.push((start, self.arena.len() as u32));
        self.table[i] = id + 1;
        // Keep the load factor under 3/4 so probe chains stay short.
        if self.spans.len() * 4 >= self.table.len() * 3 {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let slots = self.table.len() * 2;
        let mask = slots - 1;
        let mut table = vec![0u32; slots];
        for id in 0..self.spans.len() as u32 {
            let mut i = (fnv1a(self.resolve(id)) as usize) & mask;
            while table[i] != 0 {
                i = (i + 1) & mask;
            }
            table[i] = id + 1;
        }
        self.table = table;
    }

    /// The id of `term` if it has been interned.
    pub fn get(&self, term: &str) -> Option<TermId> {
        let mask = self.table.len() - 1;
        let mut i = (fnv1a(term) as usize) & mask;
        loop {
            match self.table[i] {
                0 => return None,
                slot => {
                    let id = slot - 1;
                    if self.resolve(id) == term {
                        return Some(id);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The term behind `id`. Panics on an id this interner never issued.
    pub fn resolve(&self, id: TermId) -> &str {
        let (start, end) = self.spans[id as usize];
        &self.arena[start as usize..end as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes held by the arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Iterates `(id, term)` in id (= first-appearance) order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        (0..self.spans.len() as u32).map(move |id| (id, self.resolve(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = Interner::new();
        let a = it.intern("travel");
        let b = it.intern("hotel");
        assert_eq!((a, b), (0, 1));
        assert_eq!(it.intern("travel"), a);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a), "travel");
        assert_eq!(it.resolve(b), "hotel");
        assert_eq!(it.get("hotel"), Some(b));
        assert_eq!(it.get("absent"), None);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut it = Interner::with_capacity(2);
        let terms: Vec<String> = (0..500).map(|i| format!("term{i}")).collect();
        let ids: Vec<u32> = terms.iter().map(|t| it.intern(t)).collect();
        assert_eq!(ids, (0..500).collect::<Vec<u32>>());
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(it.get(t), Some(i as u32), "lost {t} after growth");
            assert_eq!(it.resolve(i as u32), t);
        }
    }

    #[test]
    fn unicode_terms_roundtrip() {
        let mut it = Interner::new();
        for t in ["旅行", "über", "café", "ß", "travel"] {
            let id = it.intern(t);
            assert_eq!(it.resolve(id), t);
        }
        assert_eq!(it.len(), 5);
        assert_eq!(it.iter().map(|(_, t)| t).collect::<Vec<_>>().len(), 5);
    }

    #[test]
    fn empty_interner() {
        let it = Interner::new();
        assert!(it.is_empty());
        assert_eq!(it.get("x"), None);
        assert_eq!(it.arena_bytes(), 0);
    }
}

//! String interning for class names, method names, and descriptors.
//!
//! Checker rules compare names millions of times across a corpus; interning
//! turns those comparisons into `u32` equality.

use std::collections::HashMap;

/// An interned string handle, valid for the [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// An append-only string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.map.insert(s.to_owned(), sym);
        sym
    }

    /// Looks up a previously interned string without interning.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics when `sym` did not come from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A generic dense interner: maps arbitrary fact atoms (field keys,
/// def sites, …) to contiguous `u32` ids so dataflow lattices can be
/// laid out on bitsets instead of ordered sets.
///
/// Ids are assigned in first-intern order, which makes the assignment
/// deterministic for any deterministic interning sequence.
#[derive(Debug, Default, Clone)]
pub struct DenseInterner<T> {
    items: Vec<T>,
    map: HashMap<T, u32>,
}

impl<T: Clone + Eq + std::hash::Hash> DenseInterner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            map: HashMap::new(),
        }
    }

    /// Interns `item`, returning its dense id.
    pub fn intern(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.map.get(item) {
            return id;
        }
        let id = self.items.len() as u32;
        self.items.push(item.clone());
        self.map.insert(item.clone(), id);
        id
    }

    /// Looks up a previously interned item without interning.
    pub fn get(&self, item: &T) -> Option<u32> {
        self.map.get(item).copied()
    }

    /// Resolves a dense id back to the item.
    ///
    /// # Panics
    ///
    /// Panics when `id` did not come from this interner.
    pub fn resolve(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// All interned items, indexed by dense id.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of distinct interned items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("bar").is_none());
        let s = i.intern("bar");
        assert_eq!(i.get("bar"), Some(s));
    }

    #[test]
    fn dense_interner_assigns_contiguous_ids() {
        let mut d: DenseInterner<(u32, u32)> = DenseInterner::new();
        let a = d.intern(&(7, 9));
        let b = d.intern(&(3, 1));
        let a2 = d.intern(&(7, 9));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a2);
        assert_eq!(d.resolve(b), &(3, 1));
        assert_eq!(d.get(&(3, 1)), Some(1));
        assert_eq!(d.get(&(0, 0)), None);
        assert_eq!(d.items(), &[(7, 9), (3, 1)]);
        assert_eq!(d.len(), 2);
    }
}

//! The price table a long-lived pricing model keeps across calls: every
//! price it has computed, keyed by a shape (what a pricing call fixes) and a
//! column count (what varies inside the call).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// One `(column count, price)` table per shape, each sorted by column count.
type Tables<S, V> = Vec<(S, Vec<(usize, V)>)>;

/// Prices computed so far, per shape and column count. It holds only what
/// was priced: a new cache is empty and allocates nothing.
#[derive(Debug)]
pub(crate) struct PriceCache<S, V> {
    tables: Mutex<Tables<S, V>>,
}

impl<S, V> PriceCache<S, V> {
    /// An empty cache.
    pub(crate) const fn new() -> Self {
        Self {
            tables: Mutex::new(Vec::new()),
        }
    }

    fn tables(&self) -> MutexGuard<'_, Tables<S, V>> {
        // Every update is one push or insert of a finished entry, so the
        // tables stay valid even if a pricing closure panicked while holding
        // the lock.
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: PartialEq, V> PriceCache<S, V> {
    /// Lock the table of `shape` for one pricing call. Every lookup of the
    /// call goes through the returned guard, so a call takes one lock
    /// however many prices it reads; the lock is not reentrant, so drop the
    /// guard before locking again.
    pub(crate) fn lock(&self, shape: S) -> Prices<'_, S, V> {
        let mut tables = self.tables();
        let at = match tables.iter().position(|(s, _)| *s == shape) {
            Some(at) => at,
            None => {
                tables.push((shape, Vec::new()));
                tables.len() - 1
            }
        };
        Prices { tables, at }
    }
}

impl<S: Clone, V: Clone> Clone for PriceCache<S, V> {
    fn clone(&self) -> Self {
        Self {
            tables: Mutex::new(self.tables().clone()),
        }
    }
}

/// One shape's table of a locked [`PriceCache`].
pub(crate) struct Prices<'a, S, V> {
    tables: MutexGuard<'a, Tables<S, V>>,
    at: usize,
}

impl<S, V: Copy> Prices<'_, S, V> {
    /// The price recorded for `columns`, or `price()` recorded for it now.
    pub(crate) fn get_or_insert_with(&mut self, columns: usize, price: impl FnOnce() -> V) -> V {
        let table = &mut self.tables[self.at].1;
        match table.binary_search_by_key(&columns, |&(c, _)| c) {
            Ok(at) => table[at].1,
            Err(at) => insert(table, at, columns, price),
        }
    }
}

/// Price `columns` and record it at `at`. A table misses only the first
/// time it meets a column count, so the miss, with the kernel model inside
/// `price`, stays out of line and the hit path inlines into the pricing
/// loops.
#[cold]
#[inline(never)]
fn insert<V: Copy>(
    table: &mut Vec<(usize, V)>,
    at: usize,
    columns: usize,
    price: impl FnOnce() -> V,
) -> V {
    let value = price();
    table.insert(at, (columns, value));
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_each_shape_and_column_count_once() {
        let cache = PriceCache::new();
        let mut calls = 0;
        for (shape, columns) in [('a', 5), ('a', 1), ('b', 5), ('a', 5), ('a', 3), ('b', 5)] {
            cache.lock(shape).get_or_insert_with(columns, || {
                calls += 1;
                (shape, columns)
            });
        }
        assert_eq!(calls, 4);
        let priced = [('a', vec![(1, ('a', 1)), (3, ('a', 3)), (5, ('a', 5))])];
        assert_eq!(cache.tables()[..1], priced);
        // A clone carries what was priced.
        let clone = cache.clone();
        assert_eq!(clone.lock('b').get_or_insert_with(5, || ('?', 0)), ('b', 5));
        assert_eq!(clone.tables().len(), 2);
    }
}

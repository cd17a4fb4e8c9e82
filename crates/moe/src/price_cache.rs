//! The price rows a long-lived pricing model keeps across calls: one row
//! per shape (what a pricing call fixes), indexed directly by a key (what
//! varies inside the call: a column count, or a bucket of them), with the
//! zero price in entry 0.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// A value a price row can hold.
pub(crate) trait Price: Copy {
    /// The price of key 0, which costs nothing.
    const ZERO: Self;
    /// What an entry holds until its key is priced. Never a computed price:
    /// a NaN component marks it.
    const UNPRICED: Self;

    /// Whether the entry holds a computed price.
    fn is_priced(&self) -> bool;
}

impl Price for f64 {
    const ZERO: Self = 0.0;
    const UNPRICED: Self = f64::NAN;

    fn is_priced(&self) -> bool {
        !self.is_nan()
    }
}

/// One shape's prices: entry `k` holds the price of key `k`, or
/// [`Price::UNPRICED`] if no call asked for `k` yet.
#[derive(Debug, Clone)]
struct Row<V> {
    prices: Vec<V>,
    /// Every key below this one is priced.
    filled: usize,
}

impl<V: Price> Row<V> {
    fn new() -> Self {
        Self {
            prices: vec![V::ZERO],
            filled: 1,
        }
    }

    /// Price `key` and record it. A row misses only the first time it meets
    /// a key, so the miss, with the kernel model inside `price`, stays out
    /// of line and the hit path inlines into the pricing loops.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, key: usize, price: impl FnOnce() -> V) -> V {
        if self.prices.len() <= key {
            self.prices.resize(key + 1, V::UNPRICED);
        }
        let value = price();
        self.prices[key] = value;
        value
    }

    /// Price every key up to `last` that is not priced yet.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, last: usize, mut price: impl FnMut(usize) -> V) {
        if self.prices.len() <= last {
            self.prices.resize(last + 1, V::UNPRICED);
        }
        for (key, entry) in self.prices[..=last]
            .iter_mut()
            .enumerate()
            .skip(self.filled)
        {
            if !entry.is_priced() {
                *entry = price(key);
            }
        }
        self.filled = last + 1;
    }
}

/// The rows computed so far, one per shape. A new cache is empty and
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct PriceCache<S, V> {
    rows: Mutex<Vec<(S, Row<V>)>>,
}

impl<S, V> PriceCache<S, V> {
    /// An empty cache.
    pub(crate) const fn new() -> Self {
        Self {
            rows: Mutex::new(Vec::new()),
        }
    }

    fn rows(&self) -> MutexGuard<'_, Vec<(S, Row<V>)>> {
        // Every update stores finished prices only, so the rows stay valid
        // even if a pricing closure panicked while holding the lock.
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: PartialEq, V: Price> PriceCache<S, V> {
    /// Lock the row of `shape` for one pricing call. Every lookup of the
    /// call goes through the returned guard, so a call takes one lock
    /// however many prices it reads; the lock is not reentrant, so drop the
    /// guard before locking again.
    pub(crate) fn lock(&self, shape: S) -> Prices<'_, S, V> {
        let mut rows = self.rows();
        let at = match rows.iter().position(|(s, _)| *s == shape) {
            Some(at) => at,
            None => {
                rows.push((shape, Row::new()));
                rows.len() - 1
            }
        };
        Prices { rows, at }
    }
}

impl<S: Clone, V: Clone> Clone for PriceCache<S, V> {
    fn clone(&self) -> Self {
        Self {
            rows: Mutex::new(self.rows().clone()),
        }
    }
}

/// One shape's row of a locked [`PriceCache`].
pub(crate) struct Prices<'a, S, V> {
    rows: MutexGuard<'a, Vec<(S, Row<V>)>>,
    at: usize,
}

impl<S, V: Price> Prices<'_, S, V> {
    fn row(&mut self) -> &mut Row<V> {
        &mut self.rows[self.at].1
    }

    /// The price recorded for `key`, or `price()` recorded for it now: for
    /// keys spread too thinly to price every one below the largest.
    pub(crate) fn get_or_insert_with(&mut self, key: usize, price: impl FnOnce() -> V) -> V {
        let row = self.row();
        match row.prices.get(key) {
            Some(value) if value.is_priced() => *value,
            _ => row.insert(key, price),
        }
    }

    /// The prices of keys `0..=last`, each key not priced yet priced now by
    /// `price(key)`: for keys dense enough that a call can read any of them
    /// without checking whether it was priced.
    pub(crate) fn through(&mut self, last: usize, price: impl FnMut(usize) -> V) -> &[V] {
        let row = self.row();
        if row.filled <= last {
            row.fill(last, price);
        }
        &row.prices[..=last]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_each_shape_and_key_once() {
        let cache = PriceCache::new();
        let calls = std::cell::Cell::new(0);
        let price = |shape: char, key: usize| {
            calls.set(calls.get() + 1);
            (shape as usize * 100 + key) as f64
        };
        for (shape, key) in [('a', 5), ('a', 1), ('b', 5), ('a', 5), ('a', 3), ('b', 5)] {
            cache
                .lock(shape)
                .get_or_insert_with(key, || price(shape, key));
        }
        assert_eq!(calls.get(), 4);
        // Entry 0 holds the zero price; keys no call asked for stay unpriced.
        let nan = f64::NAN;
        let priced = Row {
            prices: vec![0.0, 9701.0, nan, 9703.0, nan, 9705.0],
            filled: 1,
        };
        let rows = cache.rows();
        assert_eq!(rows[0].0, 'a');
        assert_eq!(format!("{:?}", rows[0].1), format!("{priced:?}"));
        drop(rows);
        // Filling through key 6 prices only the holes, 2, 4 and 6, and the
        // row then reads every key without pricing again.
        let through = cache.lock('a').through(6, |key| price('a', key)).to_vec();
        assert_eq!(calls.get(), 7);
        assert_eq!(
            through,
            [0.0, 9701.0, 9702.0, 9703.0, 9704.0, 9705.0, 9706.0]
        );
        let again = cache.lock('a').through(4, |_| unreachable!()).to_vec();
        assert_eq!(again, through[..=4]);
        assert_eq!(
            cache.lock('a').get_or_insert_with(6, || unreachable!()),
            9706.0
        );
        // A clone carries what was priced.
        let clone = cache.clone();
        assert_eq!(clone.lock('b').get_or_insert_with(5, || 0.5), 9805.0);
        assert_eq!(clone.rows().len(), 2);
    }
}

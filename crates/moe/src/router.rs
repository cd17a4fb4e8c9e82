//! Top-k token routing and the per-expert selection arrays.
//!
//! The router is where the input-side sparsity of the Samoyeds format comes
//! from: each token is dispatched to `top_k` of the routed experts (plus all
//! shared experts), so from the perspective of one expert the activation
//! matrix is column-sparse with a dynamic pattern. To keep experiments
//! deterministic the simulated router draws token-to-expert affinities from a
//! seeded RNG; the distribution can be uniform or mildly skewed, matching the
//! balanced-routing regime the paper evaluates in (identical inputs across
//! engines, §6.3).

use crate::config::MoeModelConfig;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use samoyeds_sparse::{Result, SelectionArray, SparseError};
use std::ops::Range;
use std::sync::OnceLock;

/// The routing decision for one batch of tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingPlan {
    /// Number of routed tokens.
    pub num_tokens: usize,
    /// Experts activated per token.
    pub top_k: usize,
    /// For each expert, the ascending token indices routed to it.
    pub expert_tokens: Vec<Vec<u32>>,
    /// For each expert, the router weight of each routed token (same order
    /// as `expert_tokens`).
    pub expert_weights: Vec<Vec<f32>>,
}

impl RoutingPlan {
    /// The selection array of one expert (the `SEL` operand of the kernel).
    pub fn selection(&self, expert: usize) -> Result<SelectionArray> {
        let tokens = self
            .expert_tokens
            .get(expert)
            .ok_or_else(|| SparseError::config(format!("expert {expert} out of range")))?;
        SelectionArray::new(self.num_tokens, tokens.clone())
    }

    /// Number of experts in the plan.
    pub fn num_experts(&self) -> usize {
        self.expert_tokens.len()
    }

    /// Tokens routed to `expert`.
    pub fn tokens_for(&self, expert: usize) -> usize {
        self.expert_tokens.get(expert).map_or(0, |t| t.len())
    }

    /// The largest per-expert token count (drives padding overhead).
    pub fn max_tokens_per_expert(&self) -> usize {
        self.expert_tokens
            .iter()
            .map(|t| t.len())
            .max()
            .unwrap_or(0)
    }

    /// Load imbalance: max per-expert tokens over the balanced average.
    pub fn imbalance(&self) -> f64 {
        let avg = self.num_tokens as f64 * self.top_k as f64 / self.num_experts().max(1) as f64;
        if avg == 0.0 {
            return 1.0;
        }
        self.max_tokens_per_expert() as f64 / avg
    }

    /// Total token-expert assignments (must equal `num_tokens * top_k`).
    pub fn total_assignments(&self) -> usize {
        self.expert_tokens.iter().map(|t| t.len()).sum()
    }

    /// Per-expert token counts (the load profile placement strategies use).
    pub fn expert_loads(&self) -> Vec<usize> {
        self.expert_tokens.iter().map(|t| t.len()).collect()
    }

    /// The plan's tokens counted per (expert, source rank), in the layout
    /// of [`TopKRouter::route_loads_seeded`]: entry `e * ranks + r` counts
    /// the tokens `t` routed to expert `e` with `t % ranks == r` (token `t`
    /// starts on rank `t mod ranks`). Each expert's row sums to its
    /// [`Self::expert_loads`] entry.
    ///
    /// Panics if `ranks` is 0.
    pub fn rank_loads(&self, ranks: usize) -> Vec<usize> {
        assert!(ranks > 0, "routing counts need at least one rank");
        let mut loads = vec![0usize; self.num_experts() * ranks];
        for (row, tokens) in loads.chunks_exact_mut(ranks).zip(&self.expert_tokens) {
            for &t in tokens {
                row[t as usize % ranks] += 1;
            }
        }
        loads
    }
}

/// The most routed experts a router takes: the uniform sampler permutes
/// expert ids as bytes. No shipped config has more than 64.
pub const MAX_EXPERTS: usize = 256;

/// One 64-bit word of the uniform sampler: the Fisher–Yates positions it
/// decodes, the product `P` of their spans, and the rejection threshold
/// `2^64 mod P`, computed once per router.
#[derive(Debug, Clone, PartialEq)]
struct Word {
    positions: Range<usize>,
    product: u64,
    threshold: u64,
}

impl Word {
    fn new(positions: Range<usize>, product: u64) -> Self {
        Self {
            positions,
            product,
            // `2^64 - P` and `2^64` agree modulo `P`.
            threshold: product.wrapping_neg() % product,
        }
    }
}

/// A deterministic top-k router.
#[derive(Debug, Clone)]
pub struct TopKRouter {
    num_experts: usize,
    top_k: usize,
    seed: u64,
    skew: f64,
    /// The uniform sampler's words, grouped on the first uniform draw and
    /// kept for every later one (see [`Self::words`]).
    words: OnceLock<Box<[Word]>>,
}

impl TopKRouter {
    /// Build a router for a model configuration. A config with more than
    /// [`MAX_EXPERTS`] experts, or with `top_k` above its expert count,
    /// builds (validation reports it) and panics on its first draw.
    pub fn for_config(config: &MoeModelConfig, seed: u64) -> Self {
        Self {
            num_experts: config.num_experts,
            top_k: config.top_k,
            seed,
            skew: 0.0,
            words: OnceLock::new(),
        }
    }

    /// Build a router with explicit parameters: `top_k` in
    /// `1..=num_experts`, at most [`MAX_EXPERTS`] experts.
    pub fn new(num_experts: usize, top_k: usize, seed: u64) -> Result<Self> {
        if num_experts > MAX_EXPERTS {
            return Err(SparseError::config(format!(
                "{num_experts} experts exceed the router's {MAX_EXPERTS}"
            )));
        }
        if top_k == 0 || top_k > num_experts {
            return Err(SparseError::config(format!(
                "top_k {top_k} must be in 1..={num_experts}"
            )));
        }
        Ok(Self {
            num_experts,
            top_k,
            seed,
            skew: 0.0,
            words: OnceLock::new(),
        })
    }

    /// Skew the expert popularity: expert `e` is drawn with probability
    /// proportional to `1 / (e + 1)^skew` (Zipf-like). `skew = 0` is the
    /// uniform, balanced-routing regime of the paper's experiments; larger
    /// values concentrate traffic on a few hot experts, the imbalanced
    /// regime expert-parallel placement has to cope with.
    pub fn with_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
        self.skew = skew;
        self
    }

    /// Route `num_tokens` tokens: each token picks `top_k` distinct experts
    /// (uniformly, or Zipf-weighted under [`Self::with_skew`]) and receives
    /// softmax-normalised router weights.
    pub fn route(&self, num_tokens: usize) -> RoutingPlan {
        self.route_seeded(self.seed, num_tokens)
    }

    /// [`Self::route`] with an explicit seed override. Lets a long-lived
    /// router be reseeded per call (one router per scheduler, one seed per
    /// step) instead of being rebuilt on every step of a serving hot path:
    /// `router.route_seeded(s, n)` equals
    /// `TopKRouter::new(num_experts, top_k, s).unwrap().route(n)` with the
    /// same skew.
    ///
    /// One seeded stream serves the whole call: it draws every token's
    /// experts first, then one logit per chosen expert, token by token. The
    /// expert draws alone fix the per-expert counts, so every token and
    /// weight list is allocated at its exact length before it is filled.
    pub fn route_seeded(&self, seed: u64, num_tokens: usize) -> RoutingPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Written in place, not pushed: a loop that may reallocate keeps
        // its values in memory rather than in registers.
        let mut picks = vec![0u8; num_tokens * self.top_k];
        let (mut at, out) = (0, picks.as_mut_slice());
        self.sample(&mut rng, num_tokens, &mut [0; MAX_EXPERTS], move |chosen| {
            out[at..at + chosen.len()].copy_from_slice(chosen);
            at += chosen.len();
        });
        let mut loads = vec![0usize; self.num_experts];
        for &e in &picks {
            loads[usize::from(e)] += 1;
        }
        let mut expert_tokens: Vec<Vec<u32>> =
            loads.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut expert_weights: Vec<Vec<f32>> =
            loads.iter().map(|&n| Vec::with_capacity(n)).collect();
        // `chunks_exact(0)` panics; a zero-`top_k` plan routes nothing.
        if self.top_k > 0 {
            let mut exps = vec![0.0f32; self.top_k];
            for (token, chosen) in picks.chunks_exact(self.top_k).enumerate() {
                // Softmax over the chosen experts' logits.
                exps.fill_with(|| rng.gen_range(-1.0f32..1.0));
                let max = exps.iter().copied().fold(f32::MIN, f32::max);
                exps.iter_mut().for_each(|x| *x = (*x - max).exp());
                let sum: f32 = exps.iter().sum();
                for (&e, &x) in chosen.iter().zip(&exps) {
                    expert_tokens[usize::from(e)].push(token as u32);
                    expert_weights[usize::from(e)].push(x / sum);
                }
            }
        }
        RoutingPlan {
            num_tokens,
            top_k: self.top_k,
            expert_tokens,
            expert_weights,
        }
    }

    /// The token counts of [`Self::route_seeded`] per (expert, source
    /// rank), without the plan: a flat `num_experts × ranks` vector whose
    /// entry `e * ranks + r` counts the tokens `t` routed to expert `e` with
    /// `t % ranks == r`. `router.route_loads_seeded(s, n, r)` equals
    /// `router.route_seeded(s, n).rank_loads(r)`, so `ranks = 1` gives the
    /// per-expert loads, `route_seeded(s, n).expert_loads()`. The expert
    /// draws come first in `route_seeded`'s stream, so this makes exactly
    /// those draws and stops before the logits: no token lists, no weights.
    /// This is all a cost model that prices an expert by the length of its
    /// selection array needs, and, with one row per expert and one column
    /// per rank, all an expert-parallel step needs to dispatch tokens that
    /// start interleaved across `ranks` GPUs.
    ///
    /// A fresh-buffer form of [`Self::route_loads_into`], which a caller
    /// pricing step after step uses to keep its buffers.
    ///
    /// Panics if `ranks` is 0.
    pub fn route_loads_seeded(&self, seed: u64, num_tokens: usize, ranks: usize) -> Vec<usize> {
        self.route_loads_into(seed, num_tokens, ranks, &mut RouteScratch::default())
            .to_vec()
    }

    /// [`Self::route_loads_seeded`] counted into `scratch`, whose buffers
    /// are reused from call to call: returns the `num_experts × ranks`
    /// counts, which stay in `scratch` until its next use. Nothing a
    /// previous call left there is read.
    ///
    /// Each pick is counted into its source rank's row, indexed by the
    /// picked expert id; with more than one rank the rows are transposed
    /// into the `e * ranks + r` layout once, after the last token.
    ///
    /// Panics if `ranks` is 0.
    pub fn route_loads_into<'s>(
        &self,
        seed: u64,
        num_tokens: usize,
        ranks: usize,
        scratch: &'s mut RouteScratch,
    ) -> &'s [usize] {
        assert!(ranks > 0, "routing counts need at least one rank");
        let num_experts = self.drawn_experts();
        let RouteScratch { perm, rows, loads } = scratch;
        // The rows an earlier call counted into start over; new ones start
        // at zero, built in place (cloning a zero row in measurably slows a
        // fresh short call).
        for row in rows.iter_mut().take(ranks) {
            row[..num_experts].fill(0);
        }
        if rows.len() < ranks {
            rows.resize_with(ranks, || [0; MAX_EXPERTS]);
        }
        let rows = &mut rows[..ranks];
        self.count_rows(seed, num_tokens, perm, rows);
        if ranks == 1 {
            return &rows[0][..num_experts];
        }
        loads.clear();
        loads.resize(num_experts * ranks, 0);
        for (r, row) in rows.iter().enumerate() {
            for (e, &c) in row[..num_experts].iter().enumerate() {
                loads[e * ranks + r] = c;
            }
        }
        loads
    }

    /// Count each token's picks into its source rank's row of `rows`, which
    /// start at zero: token `t` starts on rank `t % rows.len()`, and a pick
    /// of expert `e` adds one to entry `e` of that row.
    fn count_rows(
        &self,
        seed: u64,
        num_tokens: usize,
        perm: &mut [u8; MAX_EXPERTS],
        rows: &mut [[usize; MAX_EXPERTS]],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if let [row] = rows {
            self.sample(&mut rng, num_tokens, perm, |chosen| count(row, chosen));
            return;
        }
        // A `move` closure owns the rank cursor, so the loop keeps it in a
        // register instead of writing it back to this frame every token.
        let (ranks, mut rank) = (rows.len(), 0);
        self.sample(&mut rng, num_tokens, perm, move |chosen| {
            count(&mut rows[rank], chosen);
            rank += 1;
            if rank == ranks {
                rank = 0;
            }
        });
    }

    /// The expert count, once checked against [`MAX_EXPERTS`]: every draw
    /// starts here.
    fn drawn_experts(&self) -> usize {
        assert!(
            self.num_experts <= MAX_EXPERTS,
            "{} experts exceed the router's {MAX_EXPERTS}",
            self.num_experts
        );
        self.num_experts
    }

    /// The uniform sampler's 64-bit words per token: the Fisher–Yates
    /// positions `0..top_k` grouped greedily, in order, so that the product
    /// of each word's spans `num_experts - i` stays at most 2^32 (a lone
    /// span above that still gets a word of its own). The cap keeps a
    /// word's rejection chance, below `P / 2^64`, under 2^-32. Qwen2-MoE,
    /// Mixtral, MiniCPM and OpenMoE need one word per token, DeepSeek-MoE's
    /// top-6-of-64 two.
    ///
    /// The words, their divisions included, are worked out on the first
    /// call and kept. Not before: a router is built for configs that
    /// validation goes on to deny, and for `top_k` above the expert count
    /// the spans would underflow.
    fn words(&self) -> &[Word] {
        self.words.get_or_init(|| {
            let mut words = Vec::new();
            let mut start = 0;
            let mut product = 1u64;
            for i in 0..self.top_k {
                let span = (self.num_experts - i) as u64;
                if i > start && product.saturating_mul(span) > 1 << 32 {
                    words.push(Word::new(start..i, product));
                    start = i;
                    product = 1;
                }
                product *= span;
            }
            if start < self.top_k {
                words.push(Word::new(start..self.top_k, product));
            }
            words.into_boxed_slice()
        })
    }

    /// The expert draws behind both routing outputs: for each token in
    /// order, draw its `top_k` distinct experts from `rng` and hand their ids
    /// to `visit`. `perm` is the uniform sampler's permutation of the expert
    /// ids, of which the first `num_experts` entries are reset here, so a
    /// caller may keep it from call to call.
    ///
    /// Uniform routing is a partial Fisher–Yates shuffle over one expert
    /// permutation kept for the whole call: position `i` swaps with a uniform
    /// pick from `i..num_experts`, for `i` in `0..top_k`. Whatever order
    /// the previous token left, the first `top_k` positions are then a
    /// uniform draw of `top_k` distinct experts. The picks are decoded from
    /// whole 64-bit words ([`Self::words`]), not drawn one by one: position
    /// `i` multiplies the word `x` by its span, picks `i` plus the high
    /// half and carries the low half on to the next position, so a word's
    /// picks are the mixed-radix digits of `⌊x·P / 2^64⌋`, `P` being the
    /// product of its spans. A word whose `x·P mod 2^64` falls below
    /// `2^64 mod P` is redrawn (Lemire's rejection); that leaves each of
    /// the `P` digit tuples exactly `⌊2^64 / P⌋` accepted words, so every
    /// ordered tuple of picks is exactly equally likely. A router whose
    /// four picks fit one word (Qwen2-MoE's) decodes them in [`one_word`],
    /// unrolled for that `top_k`; other uniform routers walk their words.
    /// Skewed routing samples without replacement from the Zipf
    /// popularity, one draw per pick.
    fn sample<R: RngCore>(
        &self,
        rng: &mut R,
        num_tokens: usize,
        perm: &mut [u8; MAX_EXPERTS],
        mut visit: impl FnMut(&[u8]),
    ) {
        let num_experts = self.drawn_experts();
        if self.skew == 0.0 {
            // Read once: the router holds a `OnceLock`, so the compiler may
            // not assume its fields stay put across the loop's stores and
            // would reload them for every token.
            let top_k = self.top_k;
            let words = self.words();
            for (e, slot) in perm[..num_experts].iter_mut().enumerate() {
                // Below `num_experts`, so below 256.
                *slot = e as u8;
            }
            match (words, top_k) {
                ([word], 4) => one_word::<_, 4>(rng, num_tokens, word, num_experts, perm, visit),
                _ => word_walk(rng, num_tokens, words, num_experts, top_k, perm, visit),
            }
            return;
        }
        // Clamp to the smallest positive float: extreme skews underflow the
        // Zipf tail to 0.0, which would leave the sampler with an empty
        // distribution once the hot experts are drawn.
        let popularity: Vec<f64> = (0..num_experts)
            .map(|e| (1.0 / ((e + 1) as f64).powf(self.skew)).max(f64::MIN_POSITIVE))
            .collect();
        let mut chosen: Vec<u8> = Vec::with_capacity(self.top_k);
        let mut remaining = popularity.clone();
        for _ in 0..num_tokens {
            // Weighted sampling without replacement over the popularity
            // distribution.
            chosen.clear();
            remaining.copy_from_slice(&popularity);
            for _ in 0..self.top_k {
                let total: f64 = remaining.iter().sum();
                let mut draw = rng.gen_range(0.0..total);
                // Fallback to the last still-available expert: rounding in
                // the running subtraction can leave `draw` above every
                // probability, and a fixed fallback could pick an
                // already-chosen expert (duplicating a token in its list).
                let mut pick = remaining
                    .iter()
                    .rposition(|&p| p > 0.0)
                    .expect("top_k <= num_experts leaves an expert available");
                for (e, &p) in remaining.iter().enumerate() {
                    if p <= 0.0 {
                        continue;
                    }
                    if draw < p {
                        pick = e;
                        break;
                    }
                    draw -= p;
                }
                remaining[pick] = 0.0;
                // Below `num_experts`, so below 256.
                chosen.push(pick as u8);
            }
            visit(&chosen);
        }
    }
}

impl Word {
    /// One accepted word from `rng`: a word whose `x·P mod 2^64` falls below
    /// the threshold is redrawn.
    #[inline(always)]
    fn draw<R: RngCore>(&self, rng: &mut R) -> u64 {
        let mut x = rng.next_u64();
        while x.wrapping_mul(self.product) < self.threshold {
            x = rng.next_u64();
        }
        x
    }
}

/// Count one token's picks into its source rank's row.
#[inline(always)]
fn count(row: &mut [usize; MAX_EXPERTS], chosen: &[u8]) {
    for &e in chosen {
        row[usize::from(e)] += 1;
    }
}

/// Swap position `i` of the permutation with position `i + offset`. Both
/// are below the expert count, so below 256: as bytes they index the
/// permutation without a bounds check.
#[inline(always)]
fn swap(perm: &mut [u8; MAX_EXPERTS], i: usize, offset: usize) {
    perm.swap(usize::from(i as u8), usize::from((i + offset) as u8));
}

/// Apply the Fisher–Yates swaps of `positions` that word `x` decodes to:
/// position `i` swaps with `i` plus the high half of `x · (n - i)`, and the
/// low half carries on.
#[inline(always)]
fn decode(mut x: u64, positions: Range<usize>, n: usize, perm: &mut [u8; MAX_EXPERTS]) {
    for i in positions {
        let wide = u128::from(x) * (n - i) as u128;
        swap(perm, i, (wide >> 64) as usize);
        x = wide as u64;
    }
}

/// The uniform sampler walking each token's words in order. This loop and
/// [`one_word`]'s are kept out of line: inlined into `sample` side by
/// side, they measured slower.
#[inline(never)]
fn word_walk<R: RngCore>(
    rng: &mut R,
    num_tokens: usize,
    words: &[Word],
    num_experts: usize,
    top_k: usize,
    perm: &mut [u8; MAX_EXPERTS],
    mut visit: impl FnMut(&[u8]),
) {
    for _ in 0..num_tokens {
        for word in words {
            let x = word.draw(rng);
            decode(x, word.positions.clone(), num_experts, perm);
        }
        visit(&perm[..top_k]);
    }
}

/// The uniform sampler for a router whose `K` picks fit one word: the same
/// draws and swaps as [`word_walk`], with the per-token loop unrolled over
/// a known pick count.
#[inline(never)]
fn one_word<R: RngCore, const K: usize>(
    rng: &mut R,
    num_tokens: usize,
    word: &Word,
    num_experts: usize,
    perm: &mut [u8; MAX_EXPERTS],
    mut visit: impl FnMut(&[u8]),
) {
    // A local copy: the router's words sit behind a `OnceLock`, which the
    // loop's stores could alias as far as the compiler knows.
    let word = word.clone();
    for _ in 0..num_tokens {
        let x = word.draw(rng);
        decode(x, 0..K, num_experts, perm);
        visit(&perm[..K]);
    }
}

/// The reusable buffers of [`TopKRouter::route_loads_into`]: the uniform
/// sampler's byte permutation of the expert ids, one row of counts per
/// source rank, indexed by expert id, and the counts transposed into the
/// returned layout. A new one allocates nothing. A call grows the rows to
/// its rank count (a new row starts at zero) and otherwise writes only the
/// first `num_experts` entries of the permutation and of each row.
#[derive(Debug, Clone)]
pub struct RouteScratch {
    perm: [u8; MAX_EXPERTS],
    rows: Vec<[usize; MAX_EXPERTS]>,
    loads: Vec<usize>,
}

impl Default for RouteScratch {
    fn default() -> Self {
        Self {
            perm: [0; MAX_EXPERTS],
            rows: Vec::new(),
            loads: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_validates_top_k() {
        assert!(TopKRouter::new(8, 0, 1).is_err());
        assert!(TopKRouter::new(8, 9, 1).is_err());
        assert!(TopKRouter::new(8, 2, 1).is_ok());
    }

    #[test]
    fn routing_is_deterministic_per_seed() {
        let r = TopKRouter::new(8, 2, 42).unwrap();
        assert_eq!(r.route(128), r.route(128));
        let r2 = TopKRouter::new(8, 2, 43).unwrap();
        assert_ne!(r.route(128), r2.route(128));
    }

    #[test]
    fn route_seeded_matches_a_router_built_with_that_seed() {
        // The per-step reseeding contract the serving backends rely on: one
        // long-lived router reseeded per call is indistinguishable from a
        // router rebuilt with the override seed.
        let base = TopKRouter::new(8, 2, 42).unwrap();
        for seed in [0u64, 1, 42, 42 ^ 7, u64::MAX] {
            let rebuilt = TopKRouter::new(8, 2, seed).unwrap();
            assert_eq!(base.route_seeded(seed, 128), rebuilt.route(128));
        }
        // The same holds under skew.
        let skewed = TopKRouter::new(16, 3, 5).unwrap().with_skew(1.2);
        let rebuilt = TopKRouter::new(16, 3, 99).unwrap().with_skew(1.2);
        assert_eq!(skewed.route_seeded(99, 256), rebuilt.route(256));
    }

    #[test]
    fn every_token_gets_exactly_top_k_experts() {
        let r = TopKRouter::new(16, 4, 7).unwrap();
        let plan = r.route(256);
        assert_eq!(plan.total_assignments(), 256 * 4);
        // Token indices are strictly increasing per expert (required by the
        // SelectionArray constructor).
        for e in 0..plan.num_experts() {
            let sel = plan.selection(e).unwrap();
            assert_eq!(sel.len(), plan.tokens_for(e));
            assert_eq!(sel.total(), 256);
        }
        assert!(plan.selection(99).is_err());
    }

    #[test]
    fn router_weights_are_normalised_per_token() {
        let r = TopKRouter::new(8, 2, 9).unwrap();
        let plan = r.route(64);
        // Sum of weights across experts for each token must be ~1.
        let mut per_token = vec![0.0f32; 64];
        for e in 0..plan.num_experts() {
            for (i, &t) in plan.expert_tokens[e].iter().enumerate() {
                per_token[t as usize] += plan.expert_weights[e][i];
            }
        }
        for (t, w) in per_token.iter().enumerate() {
            assert!((w - 1.0).abs() < 1e-5, "token {t} weight sum {w}");
        }
    }

    #[test]
    fn per_expert_loads_sum_to_tokens_times_top_k() {
        // The conservation invariant behind the input-side sparsity: every
        // token contributes exactly top_k assignments, however skewed the
        // per-expert loads are.
        for config in MoeModelConfig::table2() {
            for tokens in [1usize, 17, 256] {
                let plan = TopKRouter::for_config(&config, 13).route(tokens);
                let load_sum: usize = (0..plan.num_experts()).map(|e| plan.tokens_for(e)).sum();
                assert_eq!(load_sum, tokens * config.top_k, "{}", config.name);
                assert_eq!(plan.total_assignments(), tokens * config.top_k);
                assert_eq!(plan.num_experts(), config.num_experts);
                // Router weights mirror the token lists exactly.
                for e in 0..plan.num_experts() {
                    assert_eq!(plan.expert_tokens[e].len(), plan.expert_weights[e].len());
                }
            }
        }
    }

    #[test]
    fn routed_experts_each_see_a_strict_subset_of_the_batch() {
        let config = MoeModelConfig::deepseek_moe();
        let plan = TopKRouter::for_config(&config, 5).route(97);
        // Each routed expert sees a strict subset for top_k < num_experts.
        for e in 0..plan.num_experts() {
            assert!(plan.tokens_for(e) < 97);
        }
    }

    #[test]
    fn plans_are_deterministic_and_selection_arrays_match_loads() {
        let config = MoeModelConfig::qwen2_moe();
        let a = TopKRouter::for_config(&config, 99).route(333);
        let b = TopKRouter::for_config(&config, 99).route(333);
        assert_eq!(a, b);
        for e in 0..a.num_experts() {
            let sel = a.selection(e).unwrap();
            assert_eq!(sel.len(), a.tokens_for(e));
            assert_eq!(sel.total(), 333);
        }
        // A different seed changes at least the assignment pattern.
        let c = TopKRouter::for_config(&config, 100).route(333);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_routing_is_imbalanced_and_still_conserves_tokens() {
        let uniform = TopKRouter::new(16, 2, 11).unwrap().route(2048);
        let skewed = TopKRouter::new(16, 2, 11)
            .unwrap()
            .with_skew(1.2)
            .route(2048);
        assert_eq!(skewed.total_assignments(), 2048 * 2);
        assert!(
            skewed.imbalance() > uniform.imbalance() * 1.5,
            "skewed {} vs uniform {}",
            skewed.imbalance(),
            uniform.imbalance()
        );
        // Low-index experts are the hot ones under the Zipf popularity.
        assert!(skewed.tokens_for(0) > skewed.tokens_for(15) * 2);
        // Still deterministic and valid: ascending per-expert token lists.
        assert_eq!(
            skewed,
            TopKRouter::new(16, 2, 11)
                .unwrap()
                .with_skew(1.2)
                .route(2048)
        );
        for e in 0..skewed.num_experts() {
            assert!(skewed.expert_tokens[e].windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn extreme_skew_does_not_panic_and_stays_valid() {
        // Skews large enough to underflow the Zipf tail to 0.0 must still
        // sample top_k distinct experts per token.
        let plan = TopKRouter::new(16, 3, 0)
            .unwrap()
            .with_skew(1100.0)
            .route(64);
        assert_eq!(plan.total_assignments(), 64 * 3);
        for e in 0..plan.num_experts() {
            assert!(plan.expert_tokens[e].windows(2).all(|w| w[0] < w[1]));
        }
        // The hottest expert absorbs every token; once the un-underflowed
        // head is exhausted the clamped tail is sampled uniformly.
        assert_eq!(plan.tokens_for(0), 64);
    }

    #[test]
    fn load_is_roughly_balanced_for_uniform_routing() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let r = TopKRouter::for_config(&cfg, 3);
        let plan = r.route(4096);
        // Uniform random routing keeps the imbalance mild.
        assert!(plan.imbalance() < 1.35, "imbalance {}", plan.imbalance());
        let expected_avg = 4096.0 * 2.0 / 8.0;
        for e in 0..8 {
            let frac = plan.tokens_for(e) as f64 / expected_avg;
            assert!(frac > 0.7 && frac < 1.3, "expert {e} load fraction {frac}");
        }
    }

    // The sampler's distribution pins. Each bound is the χ² quantile at
    // p = 1e-6 for its degrees of freedom, so a correct sampler fails a
    // given seed with probability 1e-6; the seeds are fixed, so the tests
    // are deterministic.
    const SEEDS: [u64; 5] = [1, 2, 3, 42, 1234];

    /// Pearson's χ² of observed counts against expected counts.
    fn chi_square(observed: &[usize], expected: &[f64]) -> f64 {
        observed
            .iter()
            .zip(expected)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum()
    }

    /// Each token's experts, ascending, rebuilt from a plan's token lists.
    fn token_sets(plan: &RoutingPlan) -> Vec<Vec<usize>> {
        let mut sets = vec![Vec::with_capacity(plan.top_k); plan.num_tokens];
        for (e, tokens) in plan.expert_tokens.iter().enumerate() {
            for &t in tokens {
                sets[t as usize].push(e);
            }
        }
        sets
    }

    #[test]
    fn uniform_loads_pass_chi_square() {
        // 60 experts, top-4, 30k tokens: 2,000 expected per expert, df 59.
        let router = TopKRouter::new(60, 4, 0).unwrap();
        for seed in SEEDS {
            let chi2 = chi_square(&router.route_loads_seeded(seed, 30_000, 1), &[2_000.0; 60]);
            assert!(chi2 < 125.7, "seed {seed}: chi2 {chi2}");
        }
    }

    #[test]
    fn uniform_expert_pairs_pass_chi_square() {
        // 8 experts, top-2, 28k tokens: 28 unordered pairs, 1,000 expected
        // each, df 27.
        let router = TopKRouter::new(8, 2, 0).unwrap();
        for seed in SEEDS {
            let mut pairs = [[0usize; 8]; 8];
            for set in token_sets(&router.route_seeded(seed, 28_000)) {
                pairs[set[0]][set[1]] += 1;
            }
            let observed: Vec<usize> = (0..8)
                .flat_map(|a| (a + 1..8).map(move |b| (a, b)))
                .map(|(a, b)| pairs[a][b])
                .collect();
            let chi2 = chi_square(&observed, &[1_000.0; 28]);
            assert!(chi2 < 77.2, "seed {seed}: chi2 {chi2}");
        }
    }

    #[test]
    fn first_tokens_draw_every_ordered_pair_equally() {
        // The pins above see each token after the array has mixed, and a
        // mixed array makes a token's experts uniform whatever the decode.
        // A call's first token starts from the identity array instead, where
        // each ordered pair of 8 experts comes from exactly one pair of
        // digits: 28k one-token calls, seeded from the fixed seed's stream,
        // 500 expected per ordered pair, df 55.
        let router = TopKRouter::new(8, 2, 0).unwrap();
        for seed in SEEDS {
            let mut seeds = ChaCha8Rng::seed_from_u64(seed);
            let mut pairs = [[0usize; 8]; 8];
            for _ in 0..28_000 {
                let mut rng = ChaCha8Rng::seed_from_u64(seeds.next_u64());
                router.sample(&mut rng, 1, &mut [0; MAX_EXPERTS], |c| {
                    pairs[usize::from(c[0])][usize::from(c[1])] += 1
                });
            }
            let observed: Vec<usize> = (0..8)
                .flat_map(|a| (0..8).filter(move |&b| b != a).map(move |b| (a, b)))
                .map(|(a, b)| pairs[a][b])
                .collect();
            let chi2 = chi_square(&observed, &[500.0; 56]);
            assert!(chi2 < 119.9, "seed {seed}: chi2 {chi2}");
        }
    }

    #[test]
    fn consecutive_tokens_overlap_hypergeometrically() {
        // The expert array carries over from token to token, yet each
        // token's top-4-of-60 set must be independent of the one before:
        // their overlap follows Hypergeometric(60, 4, 4). Overlaps >= 2
        // (about 1.9% of pairs) are pooled, df 2.
        let router = TopKRouter::new(60, 4, 0).unwrap();
        let choose =
            |n: u32, k: u32| (0..k).fold(1.0, |acc, i| acc * f64::from(n - i) / f64::from(i + 1));
        let p: Vec<f64> = (0..=4)
            .map(|k| choose(4, k) * choose(56, 4 - k) / choose(60, 4))
            .collect();
        for seed in SEEDS {
            let sets = token_sets(&router.route_seeded(seed, 30_000));
            let mut observed = [0usize; 3];
            for w in sets.windows(2) {
                let overlap = w[1].iter().filter(|e| w[0].contains(e)).count();
                observed[overlap.min(2)] += 1;
            }
            let pairs = (sets.len() - 1) as f64;
            let expected = [p[0] * pairs, p[1] * pairs, (p[2] + p[3] + p[4]) * pairs];
            let chi2 = chi_square(&observed, &expected);
            assert!(
                chi2 < 27.6,
                "seed {seed}: chi2 {chi2} observed {observed:?}"
            );
        }
    }

    #[test]
    fn deepseek_top6_loads_pass_chi_square() {
        // DeepSeek-MoE's top-6-of-64, the two-word path: 32k tokens, 3,000
        // expected per expert, df 63.
        let router = TopKRouter::for_config(&MoeModelConfig::deepseek_moe(), 0);
        assert_eq!(router.words().len(), 2);
        for seed in SEEDS {
            let chi2 = chi_square(&router.route_loads_seeded(seed, 32_000, 1), &[3_000.0; 64]);
            assert!(chi2 < 131.4, "seed {seed}: chi2 {chi2}");
        }
    }

    /// An `RngCore` that replays chosen words.
    struct Words(std::vec::IntoIter<u64>);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the test supplies every word drawn")
        }
    }

    /// One token's picks from a fresh expert array, by the definition the
    /// sampler must meet: each word `x` is the number `⌊x·P / 2^64⌋`, whose
    /// mixed-radix digits (radix `num_experts - i` at position `i`, the
    /// first position most significant) are the Fisher–Yates offsets.
    fn mixed_radix_picks(num_experts: usize, words: &[(Range<usize>, u64)]) -> Vec<usize> {
        let mut experts: Vec<usize> = (0..num_experts).collect();
        for (positions, x) in words {
            let product: u128 = positions
                .clone()
                .map(|i| (num_experts - i) as u128)
                .product();
            let mut value = (u128::from(*x) * product) >> 64;
            let mut offsets = vec![0; positions.len()];
            for (slot, i) in offsets.iter_mut().zip(positions.clone()).rev() {
                let span = (num_experts - i) as u128;
                *slot = (value % span) as usize;
                value /= span;
            }
            for (i, offset) in positions.clone().zip(offsets) {
                experts.swap(i, i + offset);
            }
        }
        experts.truncate(words.last().map_or(0, |(p, _)| p.end));
        experts
    }

    #[test]
    fn a_token_takes_the_mixed_radix_digits_of_its_words() {
        let drawn = |router: &TopKRouter, words: Vec<u64>| {
            let mut picks = Vec::new();
            router.sample(
                &mut Words(words.into_iter()),
                1,
                &mut [0; MAX_EXPERTS],
                |c| picks = c.iter().copied().map(usize::from).collect(),
            );
            picks
        };
        let xs = [
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            u64::MAX,
            (1 << 63) + 1,
            0x9e37_79b9_7f4a_7c15,
        ];
        // Qwen2-MoE, one word per token.
        let qwen = TopKRouter::new(60, 4, 0).unwrap();
        for x in xs {
            assert_eq!(drawn(&qwen, vec![x]), mixed_radix_picks(60, &[(0..4, x)]));
        }
        // DeepSeek-MoE, positions 0..5 from the first word, 5 from the second.
        let deepseek = TopKRouter::new(64, 6, 0).unwrap();
        for (x, y) in xs.into_iter().zip(xs.into_iter().rev()) {
            assert_eq!(
                drawn(&deepseek, vec![x, y]),
                mixed_radix_picks(64, &[(0..5, x), (5..6, y)])
            );
        }
        // A word whose low half `x·P mod 2^64` falls below `2^64 mod P` is
        // skipped whole: Mixtral's P = 56 has threshold 16, and 0 and 2^61
        // (2^61 · 56 = 7 · 2^64) are two such words.
        let mixtral = TopKRouter::new(8, 2, 0).unwrap();
        assert_eq!(mixtral.words()[0].threshold, 16);
        for x in xs {
            let expected = mixed_radix_picks(8, &[(0..2, x)]);
            assert_eq!(drawn(&mixtral, vec![0, 1 << 61, x]), expected);
        }
    }

    #[test]
    fn every_shipped_config_groups_its_draws_into_pinned_words() {
        let pinned = [
            ("Qwen2-MoE", vec![(0..4, 60 * 59 * 58 * 57)]),
            (
                "DeepSeek-MoE",
                vec![(0..5, 64 * 63 * 62 * 61 * 60), (5..6, 59)],
            ),
            ("MiniCPM-MoE", vec![(0..2, 8 * 7)]),
            ("OpenMoE-34B", vec![(0..2, 32 * 31)]),
            ("Mixtral-8x7B", vec![(0..2, 8 * 7)]),
            ("Mixtral-8x22B", vec![(0..2, 8 * 7)]),
        ];
        let configs = MoeModelConfig::table2();
        assert_eq!(configs.len(), pinned.len());
        for (config, (name, words)) in configs.iter().zip(pinned) {
            assert_eq!(config.name, name);
            let expected: Vec<Word> = words
                .into_iter()
                .map(|(positions, product)| Word {
                    positions,
                    product,
                    threshold: ((1u128 << 64) % u128::from(product)) as u64,
                })
                .collect();
            assert_eq!(
                TopKRouter::for_config(config, 0).words(),
                expected,
                "{name}"
            );
        }
    }

    #[test]
    fn top_k_of_every_expert_routes_every_token_everywhere() {
        // 8! fits one word; 16! takes two (16·15·…·8 ≤ 2^32, then 7!).
        for (experts, words) in [(8usize, 1usize), (16, 2)] {
            let router = TopKRouter::new(experts, experts, 0).unwrap();
            assert_eq!(router.words().len(), words);
            for seed in SEEDS {
                assert_eq!(router.route_loads_seeded(seed, 101, 1), vec![101; experts]);
                let plan = router.route_seeded(seed, 101);
                assert!(plan.expert_tokens.iter().all(|t| t.len() == 101));
            }
        }
    }

    #[test]
    fn counts_into_a_reused_scratch_match_fresh_counts() {
        // One scratch serves routers of different shapes (every Table 2
        // config, one- and two-word, top-2/4/6, and a skewed router) and
        // calls of different sizes and rank counts, growing and shrinking:
        // nothing a call leaves in it may reach the next, and every call
        // counts what the full plan routes.
        let mut scratch = RouteScratch::default();
        let routers: Vec<TopKRouter> = MoeModelConfig::table2()
            .iter()
            .map(|config| TopKRouter::for_config(config, 3))
            .chain([TopKRouter::new(16, 3, 3).unwrap().with_skew(1.2)])
            .collect();
        for (i, tokens) in [0usize, 1, 7, 8, 206, 464, 2048].into_iter().enumerate() {
            let seed = 11 * i as u64 + 1;
            for router in &routers {
                let plan = router.route_seeded(seed, tokens);
                let mut ranks: Vec<usize> = (1..=8).collect();
                if i % 2 == 1 {
                    ranks.reverse();
                }
                for ranks in ranks {
                    assert_eq!(
                        router.route_loads_into(seed, tokens, ranks, &mut scratch),
                        plan.rank_loads(ranks),
                        "{} experts top-{} tokens {tokens} ranks {ranks}",
                        router.num_experts,
                        router.top_k
                    );
                }
            }
        }
    }

    #[test]
    fn routers_draw_at_most_256_experts() {
        assert!(TopKRouter::new(MAX_EXPERTS + 1, 2, 1).is_err());
        // Expert 255 is a byte like the others: top-256-of-256 routes every
        // token to every expert, counted per rank.
        let every = TopKRouter::new(MAX_EXPERTS, MAX_EXPERTS, 1).unwrap();
        for seed in SEEDS {
            let plan = every.route_seeded(seed, 5);
            assert!(plan.expert_tokens.iter().all(|t| t.len() == 5));
            assert_eq!(every.route_loads_seeded(seed, 5, 2), plan.rank_loads(2));
            assert_eq!(every.route_loads_seeded(seed, 5, 1), vec![5; MAX_EXPERTS]);
        }
    }

    #[test]
    #[should_panic(expected = "257 experts exceed the router's 256")]
    fn a_config_with_257_experts_builds_and_panics_on_its_first_draw() {
        // Validation reports the config (`fleet::too-many-experts`), so the
        // router still builds; its first draw panics.
        let mut config = MoeModelConfig::qwen2_moe();
        config.num_experts = MAX_EXPERTS + 1;
        TopKRouter::for_config(&config, 1).route_loads_seeded(1, 8, 1);
    }

    #[test]
    fn zipf_top1_loads_follow_the_popularity() {
        // Skew 1.2, 16 experts, top-1, 20k tokens: expert e is drawn with
        // probability proportional to (e + 1)^-1.2, df 15.
        let router = TopKRouter::new(16, 1, 0).unwrap().with_skew(1.2);
        let popularity: Vec<f64> = (1..=16).map(|e| f64::from(e).powf(-1.2)).collect();
        let total: f64 = popularity.iter().sum();
        let expected: Vec<f64> = popularity.iter().map(|p| p / total * 20_000.0).collect();
        for seed in SEEDS {
            let chi2 = chi_square(&router.route_loads_seeded(seed, 20_000, 1), &expected);
            assert!(chi2 < 56.5, "seed {seed}: chi2 {chi2}");
        }
    }
}

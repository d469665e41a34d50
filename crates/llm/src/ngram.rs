//! Interpolated n-gram language model.
//!
//! The DAPT stage of the paper's pipeline teaches the base model the
//! opamp domain's token distribution; here, that role is played by an
//! n-gram model with Jelinek–Mercer interpolation across orders and
//! add-α smoothing at the unigram floor. Perplexity on held-out domain
//! text quantifies adaptation (it drops sharply after training on the
//! corpus — the measurable analogue of the paper's claim that DAPT
//! instils background knowledge).
//!
//! Counting and lookup go by slice: an n-gram is a window of the padded
//! token sequence, found in the count maps without copying, and a key is
//! allocated only the first time an n-gram or context is seen.
//! Sampling walks the vocabulary support in ascending token order, so a
//! seeded generation does not depend on hash-map iteration order.

use rand::Rng;
use std::collections::HashMap;

/// Sentinel token id used to pad context at sequence starts.
const BOS: u32 = u32::MAX;

/// An interpolated n-gram language model over token ids.
///
/// # Example
///
/// ```
/// use artisan_llm::NgramLm;
///
/// let mut lm = NgramLm::new(3, 1000);
/// lm.observe(&[1, 2, 3, 1, 2, 4, 1, 2, 3]);
/// // Context (1, 2) strongly predicts 3.
/// assert!(lm.prob(&[1, 2], 3) > lm.prob(&[1, 2], 7));
/// ```
#[derive(Debug, Clone)]
pub struct NgramLm {
    order: usize,
    vocab_size: usize,
    /// counts[k] maps a (k+1)-gram (context of length k, then token) to
    /// its count; contexts[k] maps the length-k context to its total.
    counts: Vec<HashMap<Vec<u32>, u64>>,
    contexts: Vec<HashMap<Vec<u32>, u64>>,
    /// Jelinek–Mercer interpolation weight per order (higher order first).
    lambda: f64,
    /// Add-α smoothing at the unigram level.
    alpha: f64,
    tokens_seen: u64,
}

impl NgramLm {
    /// Creates an untrained model of the given order (≥ 1) over a
    /// vocabulary of `vocab_size` ids.
    ///
    /// # Panics
    ///
    /// Panics when `order` is zero or `vocab_size` is zero.
    pub fn new(order: usize, vocab_size: usize) -> Self {
        assert!(order >= 1, "order must be at least 1");
        assert!(vocab_size >= 1, "vocabulary must be non-empty");
        NgramLm {
            order,
            vocab_size,
            counts: vec![HashMap::new(); order],
            contexts: vec![HashMap::new(); order],
            lambda: 0.7,
            alpha: 0.5,
            tokens_seen: 0,
        }
    }

    /// Model order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total training tokens observed.
    pub fn tokens_seen(&self) -> u64 {
        self.tokens_seen
    }

    /// Accumulates counts from one token sequence (a document).
    pub fn observe(&mut self, tokens: &[u32]) {
        let mut padded = vec![BOS; self.order - 1];
        padded.extend_from_slice(tokens);
        for i in (self.order - 1)..padded.len() {
            for k in 0..self.order {
                // (k)-length context ending at i-1, then token at i.
                let gram = &padded[i - k..=i];
                bump(&mut self.counts[k], gram);
                bump(&mut self.contexts[k], &gram[..k]);
            }
        }
        self.tokens_seen += tokens.len() as u64;
    }

    /// Interpolated probability of `token` after `context` (the last
    /// `order − 1` entries of `context` are used).
    pub fn prob(&self, context: &[u32], token: u32) -> f64 {
        let mut window = context[context.len().saturating_sub(self.order - 1)..].to_vec();
        window.push(token);
        self.window_prob(&window)
    }

    /// [`NgramLm::prob`] of a window's last token after the rest of the
    /// window, which holds at most `order − 1` tokens of context.
    fn window_prob(&self, window: &[u32]) -> f64 {
        let n = window.len();
        let context = &window[..n - 1];
        // Unigram floor with add-α smoothing.
        let uni_count = self.counts[0].get(&window[n - 1..]).copied().unwrap_or(0) as f64;
        let total = self.tokens_seen as f64;
        let mut p = (uni_count + self.alpha) / (total + self.alpha * self.vocab_size as f64);

        // Interpolate higher orders: p_k = λ·ML_k + (1−λ)·p_{k−1}.
        for k in 1..self.order {
            if context.len() < k {
                break;
            }
            let ctx_total = self.contexts[k]
                .get(&context[context.len() - k..])
                .copied()
                .unwrap_or(0);
            if ctx_total == 0 {
                continue; // unseen context: keep lower-order estimate
            }
            let c = self.counts[k]
                .get(&window[n - 1 - k..])
                .copied()
                .unwrap_or(0) as f64;
            let ml = c / ctx_total as f64;
            p = self.lambda * ml + (1.0 - self.lambda) * p;
        }
        p
    }

    /// Perplexity of a token sequence: `exp(−(1/N)·Σ ln p)`. Returns
    /// `None` for an empty sequence.
    pub fn perplexity(&self, tokens: &[u32]) -> Option<f64> {
        if tokens.is_empty() {
            return None;
        }
        let mut padded = vec![BOS; self.order - 1];
        padded.extend_from_slice(tokens);
        let mut log_sum = 0.0;
        for window in padded.windows(self.order) {
            log_sum += self.window_prob(window).max(1e-300).ln();
        }
        Some((-log_sum / tokens.len() as f64).exp())
    }

    /// Samples the next token given a context, with temperature. A
    /// temperature of 0 is greedy argmax; higher temperatures flatten the
    /// distribution. Sampling is restricted to tokens observed in
    /// training (the unigram support), walked in ascending token order.
    pub fn sample_next<R: Rng + ?Sized>(
        &self,
        context: &[u32],
        temperature: f64,
        rng: &mut R,
    ) -> Option<u32> {
        let mut support: Vec<u32> = self.counts[0].keys().map(|g| g[0]).collect();
        if support.is_empty() {
            return None;
        }
        support.sort_unstable();
        let mut window = context[context.len().saturating_sub(self.order - 1)..].to_vec();
        window.push(0);
        let last = window.len() - 1;
        let mut prob = |token: u32| {
            window[last] = token;
            self.window_prob(&window)
        };
        if temperature <= 0.0 {
            return support
                .into_iter()
                .max_by(|&a, &b| prob(a).total_cmp(&prob(b)).then(b.cmp(&a)));
        }
        let weights: Vec<f64> = support
            .iter()
            .map(|&t| prob(t).powf(1.0 / temperature))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        for (t, w) in support.iter().zip(&weights) {
            draw -= w;
            if draw <= 0.0 {
                return Some(*t);
            }
        }
        support.last().copied()
    }

    /// Generates up to `max_tokens` tokens from a seed context.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        seed: &[u32],
        max_tokens: usize,
        temperature: f64,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut out = seed.to_vec();
        for _ in 0..max_tokens {
            let ctx_start = out.len().saturating_sub(self.order - 1);
            let Some(next) = self.sample_next(&out[ctx_start..], temperature, rng) else {
                break;
            };
            out.push(next);
        }
        out
    }
}

/// Adds one to the count of `key`, allocating the key only when it is
/// new.
fn bump(map: &mut HashMap<Vec<u32>, u64>, key: &[u32]) {
    match map.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            map.insert(key.to_vec(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The counting the slice lookups replaced, kept as its oracle: a
    /// context and an n-gram vector are built for every order at every
    /// position.
    fn oracle_observe(lm: &mut NgramLm, tokens: &[u32]) {
        let mut padded = vec![BOS; lm.order - 1];
        padded.extend_from_slice(tokens);
        for i in (lm.order - 1)..padded.len() {
            for k in 0..lm.order {
                // (k)-length context ending at i-1, then token at i.
                let ctx: Vec<u32> = padded[i - k..i].to_vec();
                let mut gram = ctx.clone();
                gram.push(padded[i]);
                *lm.counts[k].entry(gram).or_insert(0) += 1;
                *lm.contexts[k].entry(ctx).or_insert(0) += 1;
            }
        }
        lm.tokens_seen += tokens.len() as u64;
    }

    /// The probability the window lookups replaced, kept as its oracle.
    fn oracle_prob(lm: &NgramLm, context: &[u32], token: u32) -> f64 {
        // Unigram floor with add-α smoothing.
        let uni_count = lm.counts[0].get(&vec![token]).copied().unwrap_or(0) as f64;
        let total = lm.tokens_seen as f64;
        let mut p = (uni_count + lm.alpha) / (total + lm.alpha * lm.vocab_size as f64);

        // Interpolate higher orders: p_k = λ·ML_k + (1−λ)·p_{k−1}.
        for k in 1..lm.order {
            if context.len() < k {
                break;
            }
            let ctx: Vec<u32> = context[context.len() - k..].to_vec();
            let ctx_total = lm.contexts[k].get(&ctx).copied().unwrap_or(0);
            if ctx_total == 0 {
                continue; // unseen context: keep lower-order estimate
            }
            let mut gram = ctx.clone();
            gram.push(token);
            let c = lm.counts[k].get(&gram).copied().unwrap_or(0) as f64;
            let ml = c / ctx_total as f64;
            p = lm.lambda * ml + (1.0 - lm.lambda) * p;
        }
        p
    }

    /// The perplexity over [`oracle_prob`].
    fn oracle_perplexity(lm: &NgramLm, tokens: &[u32]) -> Option<f64> {
        if tokens.is_empty() {
            return None;
        }
        let mut padded = vec![BOS; lm.order - 1];
        padded.extend_from_slice(tokens);
        let mut log_sum = 0.0;
        for i in (lm.order - 1)..padded.len() {
            let ctx = &padded[i.saturating_sub(lm.order - 1)..i];
            log_sum += oracle_prob(lm, ctx, padded[i]).max(1e-300).ln();
        }
        Some((-log_sum / tokens.len() as f64).exp())
    }

    /// A token sequence of 0–`max_len` ids below `vocab`, with runs.
    fn sequence(rng: &mut StdRng, vocab: u32, max_len: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut t = rng.gen_range(0..vocab);
        for _ in 0..rng.gen_range(0..=max_len) {
            if rng.gen_bool(0.6) {
                t = rng.gen_range(0..vocab);
            }
            out.push(t);
        }
        out
    }

    // The case count follows `PROPTEST_CASES` (default 256); CI's chaos
    // job raises it to 2048.
    proptest! {
        /// Counting by slice gives the oracle's count maps, and the
        /// window lookups give the oracle's probabilities and
        /// perplexities bit for bit, for contexts shorter than, equal to
        /// and longer than the order, unseen tokens and empty sequences.
        #[test]
        fn counts_and_probabilities_match_the_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let order = rng.gen_range(1..=4);
            let vocab = rng.gen_range(1..12);
            let mut lm = NgramLm::new(order, vocab as usize + 1);
            let mut oracle = NgramLm::new(order, vocab as usize + 1);
            for _ in 0..rng.gen_range(0..8) {
                let doc = sequence(&mut rng, vocab, 30);
                lm.observe(&doc);
                oracle_observe(&mut oracle, &doc);
            }
            prop_assert_eq!(&lm.counts, &oracle.counts);
            prop_assert_eq!(&lm.contexts, &oracle.contexts);
            prop_assert_eq!(lm.tokens_seen, oracle.tokens_seen);
            for _ in 0..16 {
                let context = sequence(&mut rng, vocab + 2, order + 2);
                let token = rng.gen_range(0..vocab + 2);
                let (got, want) = (lm.prob(&context, token), oracle_prob(&oracle, &context, token));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} then {}", context, token);
                let held_out = sequence(&mut rng, vocab + 2, 20);
                let (got, want) = (lm.perplexity(&held_out), oracle_perplexity(&oracle, &held_out));
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{:?}", held_out);
            }
        }
    }

    fn trained() -> NgramLm {
        let mut lm = NgramLm::new(3, 100);
        // A strongly patterned corpus: 1 2 3 repeated, with noise.
        lm.observe(&[1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 5, 1, 2, 3]);
        lm
    }

    #[test]
    fn probabilities_form_reasonable_distribution() {
        let lm = trained();
        // Sum over support should be ≤ 1 + smoothing slack.
        let sum: f64 = (0..100).map(|t| lm.prob(&[1, 2], t)).sum();
        assert!(sum > 0.5 && sum < 1.2, "sum {sum}");
    }

    #[test]
    fn pattern_is_learned() {
        let lm = trained();
        assert!(lm.prob(&[1, 2], 3) > 0.5);
        assert!(lm.prob(&[1, 2], 3) > 10.0 * lm.prob(&[1, 2], 7));
    }

    #[test]
    fn perplexity_drops_with_training() {
        let mut lm = NgramLm::new(3, 100);
        let held_out = [1, 2, 3, 1, 2, 3];
        let before = lm.perplexity(&held_out).unwrap();
        lm.observe(&[1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let after = lm.perplexity(&held_out).unwrap();
        assert!(
            after < before / 5.0,
            "perplexity before {before}, after {after}"
        );
    }

    #[test]
    fn empty_sequence_has_no_perplexity() {
        assert!(trained().perplexity(&[]).is_none());
    }

    #[test]
    fn greedy_sampling_follows_pattern() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(lm.sample_next(&[1, 2], 0.0, &mut rng), Some(3));
    }

    #[test]
    fn generation_extends_sequence() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(0);
        let out = lm.generate(&[1], 8, 0.5, &mut rng);
        assert_eq!(out.len(), 9);
        assert_eq!(out[0], 1);
    }

    #[test]
    fn untrained_model_cannot_sample() {
        let lm = NgramLm::new(2, 10);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(lm.sample_next(&[1], 1.0, &mut rng), None);
        assert!(lm.generate(&[1], 5, 1.0, &mut rng).len() == 1);
    }

    #[test]
    fn tokens_seen_accumulates() {
        let mut lm = NgramLm::new(2, 10);
        lm.observe(&[1, 2, 3]);
        lm.observe(&[4, 5]);
        assert_eq!(lm.tokens_seen(), 5);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_panics() {
        NgramLm::new(0, 10);
    }
}

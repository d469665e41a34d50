//! Byte-pair-encoding tokenizer.
//!
//! Words are pre-split on whitespace; within a word, training greedily
//! merges the most frequent adjacent symbol pair until the vocabulary
//! budget is exhausted — the standard BPE algorithm (Sennrich et al.),
//! implemented directly. An end-of-word marker (`</w>`) keeps the
//! encoding reversible.
//!
//! Training works on interned symbol ids, as Sennrich et al.'s reference
//! learner does. It counts every adjacent pair of every distinct word
//! once, weighted by the word's frequency, and keeps an index from each
//! pair to the words that contain it. A merge rewrites only the words
//! in its pair's index and adjusts the counts of the pairs those words
//! lose and gain, so training costs time in proportion to the corpus,
//! not to merges × corpus. The best pair comes off a max-heap of
//! counts whose stale entries are skipped. A count tie goes to the
//! lexicographically smallest `(left, right)` pair of *strings*, never
//! of ids, so the merges do not depend on the order symbols were
//! interned in.
//!
//! Encoding reads a merge table built once at training time. For each
//! word it jumps to the lowest-ranked merge above the last one applied
//! among the word's adjacent pairs, and applies it to every
//! left-to-right occurrence. The merges it skips have no pair in the
//! word, so they would change nothing, and the result equals applying
//! every merge in rank order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;

/// Marker appended to the final symbol of every word so that decoding can
/// restore word boundaries.
const EOW: &str = "</w>";

/// The symbol every string outside the vocabulary encodes to.
const UNK: &str = "<unk>";

/// Stand-in id, while a word is encoded, for a symbol outside the
/// vocabulary: it is in no pair of the merge table, so it blocks merges,
/// and it comes out as `<unk>`.
const OOV: u32 = u32::MAX;

/// One learned merge in vocabulary ids: the pair, its rank in the merge
/// list, and the id of the symbol it spells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rule {
    left: u32,
    right: u32,
    rank: u32,
    merged: u32,
}

/// A trained BPE tokenizer.
///
/// # Example
///
/// ```
/// use artisan_llm::BpeTokenizer;
///
/// let tok = BpeTokenizer::train(&["miller compensation capacitor"], 64);
/// let ids = tok.encode("miller capacitor");
/// assert_eq!(tok.decode(&ids), "miller capacitor");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BpeTokenizer {
    /// Symbol → token id. Ids are dense, 0-based.
    vocab: HashMap<String, u32>,
    /// Token id → symbol (inverse of `vocab`).
    symbols: Vec<String>,
    /// The learned merges in vocabulary ids, sorted by pair and then
    /// rank (the merge's place in learning order). A pair learned at two
    /// ranks has two rules.
    rules: Vec<Rule>,
    /// Where each pair's rules start in `rules`.
    first_rule: HashMap<(u32, u32), u32>,
}

impl BpeTokenizer {
    /// Trains on a corpus with a vocabulary budget (base symbols plus
    /// learned merges). Lowercases input; unknown characters at encode
    /// time fall back to per-character tokens added lazily as `<unk>`.
    ///
    /// # Panics
    ///
    /// Panics when `vocab_budget` is zero.
    pub fn train(corpus: &[&str], vocab_budget: usize) -> Self {
        assert!(vocab_budget > 0, "vocabulary budget must be positive");
        let mut interner = Interner::default();
        let merges = learn_merges(corpus, vocab_budget, &mut interner);
        let mut symbols: Vec<String> = interner.strings.iter().map(|s| s.to_string()).collect();
        drop(interner);
        symbols.sort_unstable();
        BpeTokenizer::from_parts(&merges, symbols)
    }

    /// Assembles a tokenizer from its merges in learning order and its
    /// vocabulary in sorted order (`<unk>` not yet appended).
    fn from_parts(merges: &[(String, String)], mut symbols: Vec<String>) -> Self {
        symbols.push(UNK.to_string());
        let vocab: HashMap<String, u32> = symbols
            .iter()
            .enumerate()
            .map(|(k, s)| (s.clone(), k as u32))
            .collect();
        let mut rules: Vec<Rule> = merges
            .iter()
            .enumerate()
            .map(|(rank, (l, r))| Rule {
                left: vocab[l.as_str()],
                right: vocab[r.as_str()],
                rank: rank as u32,
                merged: vocab[format!("{l}{r}").as_str()],
            })
            .collect();
        rules.sort_unstable();
        let mut first_rule = HashMap::new();
        for (i, r) in rules.iter().enumerate() {
            first_rule.entry((r.left, r.right)).or_insert(i as u32);
        }
        BpeTokenizer {
            vocab,
            symbols,
            rules,
            first_rule,
        }
    }

    /// Vocabulary size (including `<unk>`).
    pub fn vocab_size(&self) -> usize {
        self.symbols.len()
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.rules.len()
    }

    /// Encodes text into token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let unk = self.vocab[UNK];
        let text = text.to_lowercase();
        let mut out = Vec::new();
        // Where each distinct word's tokens were first written to `out`.
        let mut seen: HashMap<&str, (usize, usize)> = HashMap::new();
        let mut syms = Vec::new();
        let mut buf = String::new();
        for word in text.split_whitespace() {
            if let Some(&(start, end)) = seen.get(word) {
                out.extend_from_within(start..end);
                continue;
            }
            let start = out.len();
            self.encode_word(word, &mut syms, &mut buf);
            out.extend(syms.iter().map(|&id| if id == OOV { unk } else { id }));
            seen.insert(word, (start, out.len()));
        }
        out
    }

    /// Encodes one lowercased word into `syms`, with [`OOV`] for symbols
    /// outside the vocabulary.
    fn encode_word(&self, word: &str, syms: &mut Vec<u32>, buf: &mut String) {
        spell(word, buf, syms, |s| {
            self.vocab.get(s).copied().unwrap_or(OOV)
        });
        // Ranks below `from` have been applied or skipped.
        let mut from = 0;
        while let Some(rule) = syms
            .windows(2)
            .filter_map(|pair| self.next_rule(pair[0], pair[1], from))
            .min_by_key(|rule| rule.rank)
        {
            merge_in_place(syms, (rule.left, rule.right), rule.merged);
            from = rule.rank + 1;
        }
    }

    /// The lowest-ranked rule for the pair `(left, right)` at rank
    /// `from` or above.
    fn next_rule(&self, left: u32, right: u32, from: u32) -> Option<Rule> {
        let first = *self.first_rule.get(&(left, right))? as usize;
        self.rules[first..]
            .iter()
            .take_while(|r| r.left == left && r.right == right)
            .find(|r| r.rank >= from)
            .copied()
    }

    /// Decodes token ids back into text. Unknown ids render as `<unk>`.
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            let sym = self
                .symbols
                .get(id as usize)
                .map(String::as_str)
                .unwrap_or(UNK);
            if let Some(stripped) = sym.strip_suffix(EOW) {
                out.push_str(stripped);
                out.push(' ');
            } else {
                out.push_str(sym);
            }
        }
        out.trim_end().to_string()
    }

    /// Counts tokens in a text — the unit of Table 1's "Tokens (M)"
    /// column.
    pub fn count_tokens(&self, text: &str) -> usize {
        self.encode(text).len()
    }
}

/// Spells `word` into `syms` as its symbols, one per char with `</w>`
/// after the last, each symbol's text mapped to an id by `id`.
fn spell(word: &str, buf: &mut String, syms: &mut Vec<u32>, mut id: impl FnMut(&str) -> u32) {
    syms.clear();
    let mut chars = word.chars().peekable();
    while let Some(c) = chars.next() {
        buf.clear();
        buf.push(c);
        if chars.peek().is_none() {
            buf.push_str(EOW);
        }
        syms.push(id(buf));
    }
}

/// Replaces every left-to-right occurrence of `pair` in `syms` by
/// `merged`, without overlap: `a a a` becomes `aa a`.
fn merge_in_place(syms: &mut Vec<u32>, pair: (u32, u32), merged: u32) {
    let (mut read, mut write) = (0, 0);
    while read < syms.len() {
        if read + 1 < syms.len() && (syms[read], syms[read + 1]) == pair {
            syms[write] = merged;
            read += 2;
        } else {
            syms[write] = syms[read];
            read += 1;
        }
        write += 1;
    }
    syms.truncate(write);
}

/// Symbol strings interned to dense ids in order of first sight. Ids
/// are private to one training run; every decision that orders
/// symbols compares their strings.
#[derive(Default)]
struct Interner {
    ids: HashMap<Rc<str>, u32>,
    strings: Vec<Rc<str>>,
}

impl Interner {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.strings.len() as u32;
        let text: Rc<str> = Rc::from(text);
        self.strings.push(Rc::clone(&text));
        self.ids.insert(text, id);
        id
    }

    fn text(&self, id: u32) -> &Rc<str> {
        &self.strings[id as usize]
    }

    /// Number of distinct symbols: the vocabulary before `<unk>`.
    fn len(&self) -> usize {
        self.strings.len()
    }
}

/// Learns merges until the vocabulary holds `vocab_budget` symbols, no
/// pair is left, or the best pair occurs fewer than twice. The word
/// lists and pair counts are freed on return, before the caller builds
/// the tokenizer.
fn learn_merges(
    corpus: &[&str],
    vocab_budget: usize,
    interner: &mut Interner,
) -> Vec<(String, String)> {
    let (mut symbols, freqs) = distinct_words(corpus, interner);
    let mut pairs = PairCounts::new(&symbols, &freqs, interner);
    let mut merges = Vec::new();
    while interner.len() < vocab_budget {
        let Some((pair, count)) = pairs.best() else {
            break; // no pair left
        };
        if count < 2 {
            break; // nothing frequent enough to merge
        }
        let (left, right) = (interner.text(pair.0), interner.text(pair.1));
        let spelled = format!("{left}{right}");
        merges.push((left.to_string(), right.to_string()));
        let merged = interner.intern(&spelled);
        pairs.merge(pair, merged, &mut symbols, &freqs, interner);
    }
    merges
}

/// The distinct words of a corpus, each text lowercased whole and split
/// on whitespace, spelled in interned symbol ids, and their frequencies.
fn distinct_words(corpus: &[&str], interner: &mut Interner) -> (Vec<Vec<u32>>, Vec<u64>) {
    let mut index: HashMap<String, usize> = HashMap::new();
    let (mut words, mut freqs) = (Vec::new(), Vec::new());
    let mut buf = String::new();
    for text in corpus {
        for word in text.to_lowercase().split_whitespace() {
            if let Some(&w) = index.get(word) {
                freqs[w] += 1;
                continue;
            }
            let mut syms = Vec::new();
            spell(word, &mut buf, &mut syms, |s| interner.intern(s));
            index.insert(word.to_string(), words.len());
            words.push(syms);
            freqs.push(1);
        }
    }
    (words, freqs)
}

type Pair = (u32, u32);

/// A pair's count as it stood when pushed on the heap, with the pair's
/// strings for the tie rule. The heap's maximum is the highest count,
/// and among equal counts the smallest `(left, right)` strings.
struct Candidate {
    count: u64,
    left: Rc<str>,
    right: Rc<str>,
    pair: Pair,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.count
            .cmp(&other.count)
            .then_with(|| (&other.left, &other.right).cmp(&(&self.left, &self.right)))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Adjacent-pair counts over the distinct words, weighted by word
/// frequency, kept current across merges.
struct PairCounts {
    /// Every pair with a positive count.
    counts: HashMap<Pair, u64>,
    /// The words each pair occurs in, each word once.
    words: HashMap<Pair, HashSet<usize>>,
    /// Counts as pushed; an entry whose count is no longer the pair's
    /// is stale and skipped.
    heap: BinaryHeap<Candidate>,
}

impl PairCounts {
    fn new(symbols: &[Vec<u32>], freqs: &[u64], interner: &Interner) -> Self {
        let mut counts: HashMap<Pair, u64> = HashMap::new();
        let mut words: HashMap<Pair, HashSet<usize>> = HashMap::new();
        for (w, (syms, &freq)) in symbols.iter().zip(freqs).enumerate() {
            for pair in syms.windows(2) {
                let pair = (pair[0], pair[1]);
                *counts.entry(pair).or_insert(0) += freq;
                words.entry(pair).or_default().insert(w);
            }
        }
        let heap = counts
            .iter()
            .map(|(&pair, &count)| candidate(pair, count, interner))
            .collect();
        PairCounts {
            counts,
            words,
            heap,
        }
    }

    /// The pair with the highest count, ties to the smallest strings.
    fn best(&mut self) -> Option<(Pair, u64)> {
        while let Some(top) = self.heap.pop() {
            if self.counts.get(&top.pair) == Some(&top.count) {
                return Some((top.pair, top.count));
            }
        }
        None
    }

    /// Rewrites every word holding `pair` with the pair merged into
    /// `merged`, and brings the counts, the word index and the heap up
    /// to date.
    fn merge(
        &mut self,
        pair: Pair,
        merged: u32,
        symbols: &mut [Vec<u32>],
        freqs: &[u64],
        interner: &Interner,
    ) {
        let mut delta: HashMap<Pair, i64> = HashMap::new();
        let (mut old, mut new) = (Vec::new(), Vec::new());
        for w in self.words.remove(&pair).unwrap_or_default() {
            let freq = freqs[w] as i64;
            pairs_into(&mut old, &symbols[w]);
            merge_in_place(&mut symbols[w], pair, merged);
            pairs_into(&mut new, &symbols[w]);
            for p in &old {
                *delta.entry(*p).or_insert(0) -= freq;
                if !new.contains(p) {
                    if let Some(ws) = self.words.get_mut(p) {
                        ws.remove(&w);
                    }
                }
            }
            for p in &new {
                *delta.entry(*p).or_insert(0) += freq;
                if !old.contains(p) {
                    self.words.entry(*p).or_default().insert(w);
                }
            }
        }
        for (p, d) in delta {
            if d == 0 {
                continue;
            }
            let count = self.counts.get(&p).map_or(0, |&c| c as i64) + d;
            if count > 0 {
                self.counts.insert(p, count as u64);
                self.heap.push(candidate(p, count as u64, interner));
            } else {
                self.counts.remove(&p);
                self.words.remove(&p);
            }
        }
    }
}

/// Overwrites `out` with the adjacent pairs of `syms`.
fn pairs_into(out: &mut Vec<Pair>, syms: &[u32]) {
    out.clear();
    out.extend(syms.windows(2).map(|p| (p[0], p[1])));
}

fn candidate(pair: Pair, count: u64, interner: &Interner) -> Candidate {
    Candidate {
        count,
        left: Rc::clone(interner.text(pair.0)),
        right: Rc::clone(interner.text(pair.1)),
        pair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A merge list in learning order, as strings.
    type Merges = Vec<(String, String)>;

    /// The trainer the incremental one replaced, kept as its oracle: each
    /// merge recounts every adjacent pair of every distinct word as
    /// string pairs, takes the best, and rebuilds the word table. Returns
    /// the tokenizer and its merges.
    fn oracle_train(corpus: &[&str], vocab_budget: usize) -> (BpeTokenizer, Merges) {
        assert!(vocab_budget > 0, "vocabulary budget must be positive");
        // Word frequency table.
        let mut word_freq: HashMap<Vec<String>, u64> = HashMap::new();
        for text in corpus {
            for word in text.to_lowercase().split_whitespace() {
                let mut syms: Vec<String> = word.chars().map(|c| c.to_string()).collect();
                if let Some(last) = syms.last_mut() {
                    last.push_str(EOW);
                }
                if !syms.is_empty() {
                    *word_freq.entry(syms).or_insert(0) += 1;
                }
            }
        }

        // Base vocabulary: all single symbols seen.
        let mut vocab_set: std::collections::BTreeSet<String> =
            word_freq.keys().flat_map(|w| w.iter().cloned()).collect();

        let mut merges = Vec::new();
        while vocab_set.len() < vocab_budget {
            // Count adjacent pairs.
            let mut pair_freq: HashMap<(String, String), u64> = HashMap::new();
            for (word, freq) in &word_freq {
                for pair in word.windows(2) {
                    *pair_freq
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_insert(0) += freq;
                }
            }
            // Deterministic tie-break: highest frequency, then lexicographic.
            let Some((best, best_freq)) = pair_freq
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            else {
                break;
            };
            if best_freq < 2 {
                break; // nothing frequent enough to merge
            }
            let merged = format!("{}{}", best.0, best.1);
            vocab_set.insert(merged.clone());
            merges.push(best.clone());

            // Apply the merge to all words.
            let mut next: HashMap<Vec<String>, u64> = HashMap::with_capacity(word_freq.len());
            for (word, freq) in word_freq.drain() {
                let mut out = Vec::with_capacity(word.len());
                let mut i = 0;
                while i < word.len() {
                    if i + 1 < word.len() && word[i] == best.0 && word[i + 1] == best.1 {
                        out.push(merged.clone());
                        i += 2;
                    } else {
                        out.push(word[i].clone());
                        i += 1;
                    }
                }
                *next.entry(out).or_insert(0) += freq;
            }
            word_freq = next;
        }

        let tok = BpeTokenizer::from_parts(&merges, vocab_set.into_iter().collect());
        (tok, merges)
    }

    /// The encoder the merge table replaced, kept as its oracle: every
    /// merge, in rank order, is tried on every word as strings.
    fn oracle_encode(tok: &BpeTokenizer, merges: &Merges, text: &str) -> Vec<u32> {
        let unk = tok.vocab["<unk>"];
        let mut out = Vec::new();
        for word in text.to_lowercase().split_whitespace() {
            let mut syms: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            if let Some(last) = syms.last_mut() {
                last.push_str(EOW);
            }
            // Apply merges in learned order.
            for (l, r) in merges {
                let mut i = 0;
                while i + 1 < syms.len() {
                    if &syms[i] == l && &syms[i + 1] == r {
                        syms[i] = format!("{l}{r}");
                        syms.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            for s in syms {
                out.push(tok.vocab.get(&s).copied().unwrap_or(unk));
            }
        }
        out
    }

    /// The tokenizer's merges in learning order, read back from its
    /// rules.
    fn merge_list(tok: &BpeTokenizer) -> Merges {
        let mut rules = tok.rules.clone();
        rules.sort_unstable_by_key(|r| r.rank);
        let text = |id: u32| tok.symbols[id as usize].clone();
        rules
            .iter()
            .map(|r| (text(r.left), text(r.right)))
            .collect()
    }

    /// Trains with both trainers, asserts they learn the same merges and
    /// vocabulary, and checks that both encoders agree on every text.
    /// Returns the trained tokenizer and its merges.
    fn assert_matches_oracle(
        corpus: &[&str],
        budget: usize,
        texts: &[&str],
    ) -> (BpeTokenizer, Merges) {
        let tok = BpeTokenizer::train(corpus, budget);
        let (oracle, merges) = oracle_train(corpus, budget);
        assert_eq!(
            merge_list(&tok),
            merges,
            "budget {budget}, corpus {corpus:?}"
        );
        assert_eq!(tok, oracle, "budget {budget}, corpus {corpus:?}");
        for text in corpus.iter().chain(texts) {
            assert_eq!(
                tok.encode(text),
                oracle_encode(&oracle, &merges, text),
                "text {text:?}"
            );
        }
        (tok, merges)
    }

    /// Characters the random corpora draw their alphabets from: ASCII,
    /// `é`, `İ` (which lowercases to two chars), `Σ` (whose lowercase
    /// depends on its place in the word), and the characters of `</w>`
    /// and `<unk>`.
    const ALPHABET: [char; 14] = [
        'a', 'b', 'e', 'é', 'İ', 'Σ', '<', '>', '/', 'w', 'u', 'n', 'k', 'A',
    ];
    const SPACES: [&str; 6] = [" ", "  ", "\t", "\n", " \n\t ", "\u{a0}"];

    /// A text of 0–`max_words` words over `alphabet`, with runs of
    /// whitespace before, between and after them. Words favour repeated
    /// characters, so overlapping pairs such as `a a a` are common, and
    /// now and then spell the end-of-word marker inside a word: a merge
    /// can then spell a symbol that already exists, and a pair can form
    /// again after its rank.
    fn text(rng: &mut StdRng, alphabet: &[char], max_words: usize) -> String {
        let mut out = String::new();
        for _ in 0..rng.gen_range(0..=max_words) {
            out.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
            let mut c = alphabet[rng.gen_range(0..alphabet.len())];
            for _ in 0..rng.gen_range(1..=6) {
                if rng.gen_bool(0.15) {
                    out.push_str(EOW);
                    continue;
                }
                if rng.gen_bool(0.4) {
                    c = alphabet[rng.gen_range(0..alphabet.len())];
                }
                out.push(c);
            }
        }
        if rng.gen_bool(0.3) {
            out.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
        }
        out
    }

    // The case count follows `PROPTEST_CASES` (default 256); CI's chaos
    // job raises it to 2048.
    proptest! {
        /// On random corpora the incremental trainer learns the oracle's
        /// merges and vocabulary, and the rank-jumping encoder gives the
        /// oracle's ids on training text, on fresh text, on text with
        /// unseen characters and on a literal `<unk>`.
        #[test]
        fn training_and_encoding_match_the_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut alphabet = ALPHABET.to_vec();
            for i in 0..alphabet.len() {
                let j = rng.gen_range(i..alphabet.len());
                alphabet.swap(i, j);
            }
            alphabet.truncate(rng.gen_range(2..=10));
            let corpus: Vec<String> =
                (0..rng.gen_range(0..=12)).map(|_| text(&mut rng, &alphabet, 12)).collect();
            let corpus: Vec<&str> = corpus.iter().map(String::as_str).collect();
            let budget = rng.gen_range(1..80);
            let mut texts: Vec<String> = (0..4).map(|_| text(&mut rng, &alphabet, 6)).collect();
            texts.push(text(&mut rng, &ALPHABET, 6));
            texts.push(format!("<unk> {} ωz <UNK>", texts[0]));
            texts.push(String::new());
            let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
            assert_matches_oracle(&corpus, budget, &texts);
        }
    }

    fn merge(l: &str, r: &str) -> (String, String) {
        (l.to_string(), r.to_string())
    }

    #[test]
    fn count_ties_go_to_the_smallest_strings() {
        // (y, z</w>) and (x, y</w>) both occur twice. "y" and "z</w>"
        // are interned first, so their pair has the smaller ids, but
        // ("x", "y</w>") has the smaller strings and wins.
        let (_, merges) = assert_matches_oracle(&["yz yz xy xy"], 8, &["xyz yzxy"]);
        assert_eq!(merges, vec![merge("x", "y</w>"), merge("y", "z</w>")]);
    }

    #[test]
    fn overlapping_pairs_merge_left_to_right() {
        // "aaaa" holds the pair (a, a) twice, overlapping, before its
        // "a</w>"; it merges once, leaving "aa a a</w>".
        let (tok, merges) = assert_matches_oracle(&["aaaa aaaa aaa"], 3, &["aaaaa aa a aaa"]);
        assert_eq!(merges, vec![merge("a", "a")]);
        let id = |s: &str| tok.vocab[s];
        assert_eq!(tok.encode("aaaa"), vec![id("aa"), id("a"), id("a</w>")]);
        assert_eq!(tok.encode("aaaaa"), vec![id("aa"), id("aa"), id("a</w>")]);
    }

    #[test]
    fn one_string_spelled_by_two_pairs_is_one_symbol() {
        // A literal end-of-word marker inside a word: "</w></w>" is
        // spelled first by ("</w", "></w>") and then by ("</w>", "</w>"),
        // which adds no vocabulary entry.
        let corpus = ["</w></w></w> </w></w></w>"];
        let (tok, merges) = assert_matches_oracle(&corpus, 100, &["</w></w> </w>"]);
        assert_eq!(merges[3], merge("</w", "></w>"));
        assert_eq!(merges[4], merge("</w>", "</w>"));
        // Base symbols "<", "/", "w", ">", "></w>", then one per spelled
        // string: six merges, five new symbols, and <unk>.
        assert_eq!(tok.merge_count(), 6);
        assert_eq!(tok.vocab_size(), 5 + 5 + 1);
    }

    #[test]
    fn a_pair_learned_twice_merges_at_both_ranks() {
        // ("a", "</w></w>") is learned at ranks 4 and 6: between them
        // ("</w", "></w>") spells "</w></w>" a second way.
        let corpus =
            ["a</w></w>a a</w></w>a a</w></w>a a</w></w>a</w> a</w></w>a</w> a</w></w>a</w>"];
        let (_, merges) = assert_matches_oracle(&corpus, 100, &["a</w></w>a</w></w>a a</w></w>"]);
        assert_eq!(merges[4], merge("a", "</w></w>"));
        assert_eq!(merges[6], merge("a", "</w></w>"));
    }

    #[test]
    fn a_pair_that_forms_after_its_rank_stays_apart() {
        // In "ba</w>b", (b, a</w>) forms only at rank 4, when
        // ("a", "</w>") spells "a</w>"; its own rank, 0, has passed.
        // The final "b</w>" never occurs in training: it is <unk>.
        let corpus = ["a</w>a</w>a ba ba ba"];
        let (tok, merges) = assert_matches_oracle(&corpus, 100, &["ba</w>b"]);
        assert_eq!(merges[0], merge("b", "a</w>"));
        assert_eq!(merges[4], merge("a", "</w>"));
        let id = |s: &str| tok.vocab[s];
        assert_eq!(
            tok.encode("ba</w>b"),
            vec![id("b"), id("a</w>"), id("<unk>")]
        );
    }

    /// Trains on the corpus `Artisan::new(ArtisanOptions::paper_default())`
    /// trains its agent on, the 251 pre-training documents of the
    /// 1/1000-scale dataset at seed 2024, and checks both trainers and
    /// both encoders agree.
    fn assert_paper_corpus_matches_the_oracle(budget: usize) {
        use artisan_dataset::{DatasetConfig, OpampDataset};
        let dataset = OpampDataset::build(&DatasetConfig::default(), 2024);
        let docs = dataset.pretraining_documents();
        assert_eq!(docs.len(), 251);
        let (tok, _) = assert_matches_oracle(&docs, budget, &[]);
        assert_eq!(tok.vocab_size(), budget + 1);
    }

    /// The agent's budget.
    #[test]
    fn the_paper_corpus_matches_the_oracle_at_1500() {
        assert_paper_corpus_matches_the_oracle(1500);
    }

    /// Table 1's budget.
    #[test]
    fn the_paper_corpus_matches_the_oracle_at_2000() {
        assert_paper_corpus_matches_the_oracle(2000);
    }

    #[test]
    fn a_budget_below_the_base_alphabet_learns_nothing() {
        let (tok, _) = assert_matches_oracle(CORPUS, 5, &["stage"]);
        assert_eq!(tok.merge_count(), 0);
        assert!(tok.vocab_size() > 5);
    }

    #[test]
    fn a_corpus_without_a_repeated_pair_learns_nothing() {
        let (tok, _) = assert_matches_oracle(&["ab cd ef"], 100, &["abcdef fe"]);
        assert_eq!(tok.merge_count(), 0);
        let (tok, _) = assert_matches_oracle(&[], 100, &["anything"]);
        assert_eq!(tok.vocab_size(), 1);
        assert_eq!(tok.encode("a b"), vec![0, 0]);
    }

    const CORPUS: &[&str] = &[
        "the nested miller compensation opamp uses two miller capacitors",
        "the miller capacitor controls the dominant pole",
        "a three stage opamp has three transconductance stages",
    ];

    #[test]
    fn roundtrip_on_training_text() {
        let tok = BpeTokenizer::train(CORPUS, 200);
        for text in CORPUS {
            let ids = tok.encode(text);
            assert_eq!(tok.decode(&ids), *text);
        }
    }

    #[test]
    fn roundtrip_on_unseen_text_with_known_chars() {
        let tok = BpeTokenizer::train(CORPUS, 200);
        let text = "stage capacitor pole";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn merges_reduce_token_count() {
        let small = BpeTokenizer::train(CORPUS, 30); // almost chars only
        let large = BpeTokenizer::train(CORPUS, 300); // many merges
        let text = "miller compensation capacitors";
        assert!(
            large.count_tokens(text) < small.count_tokens(text),
            "{} vs {}",
            large.count_tokens(text),
            small.count_tokens(text)
        );
        assert!(large.merge_count() > small.merge_count());
    }

    #[test]
    fn unknown_characters_fall_back_to_unk() {
        let tok = BpeTokenizer::train(CORPUS, 100);
        let ids = tok.encode("ωζ"); // characters never seen
        assert!(!ids.is_empty());
        assert!(tok.decode(&ids).contains("<unk>"));
    }

    #[test]
    fn lowercasing_is_applied() {
        let tok = BpeTokenizer::train(CORPUS, 100);
        assert_eq!(tok.encode("MILLER"), tok.encode("miller"));
    }

    #[test]
    fn training_is_deterministic() {
        let a = BpeTokenizer::train(CORPUS, 150);
        let b = BpeTokenizer::train(CORPUS, 150);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_panics() {
        BpeTokenizer::train(CORPUS, 0);
    }

    #[test]
    fn vocab_contains_unk() {
        let tok = BpeTokenizer::train(CORPUS, 50);
        assert!(tok.vocab_size() >= 2);
        assert!(tok.decode(&[tok.vocab_size() as u32]).contains("<unk>"));
    }
}

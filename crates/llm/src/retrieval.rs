//! TF-IDF retrieval with cosine ranking.
//!
//! The SFT stage's functional payload: after indexing the DesignQA set,
//! answering a prompter question reduces to retrieving the best-matching
//! training question and emitting (a perturbed copy of) its answer.
//!
//! The index is inverted: each term keeps its postings, the (document,
//! normalized weight) pairs of the documents that contain it, in
//! document order. A query touches only the postings of its own terms.
//! Every floating-point sum runs in sorted term order, never in hash-map
//! iteration order, so identical queries score bit-identically across
//! calls, index builds and processes.

use std::collections::{BTreeMap, HashMap};

/// A ranked retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Index of the document in insertion order.
    pub doc_id: usize,
    /// Cosine similarity in `[0, 1]`.
    pub score: f64,
}

/// One entry of a term's postings list: a document id and the term's
/// weight in that document.
type Posting = (usize, f64);

/// A TF-IDF index over word-tokenized documents.
///
/// # Example
///
/// ```
/// use artisan_llm::TfIdfIndex;
///
/// let mut idx = TfIdfIndex::new();
/// idx.add_document("nested miller compensation for three stage opamps");
/// idx.add_document("bandgap reference voltage temperature");
/// idx.finalize();
/// let hits = idx.query("how to compensate a three stage opamp", 1);
/// assert_eq!(hits[0].doc_id, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TfIdfIndex {
    /// Postings per term, in document order: the raw term frequency
    /// until `finalize`, the normalized tf-idf weight after it. A term's
    /// document frequency is the length of its list.
    postings: HashMap<String, Vec<Posting>>,
    /// Number of documents added.
    docs: usize,
    finalized: bool,
}

fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(stem)
        .collect()
}

/// A deliberately light suffix stemmer: maps inflected forms
/// (`poles`→`pole`, `allocated`/`allocation`→`allocat`, `driving`→`driv`)
/// onto shared stems so that paraphrased questions still retrieve. Not a
/// full Porter stemmer — just the suffixes that matter for engineering
/// prose.
fn stem(word: &str) -> String {
    let w = word;
    for suffix in ["ations", "ation", "ing", "ed", "s"] {
        if let Some(stripped) = w.strip_suffix(suffix) {
            if stripped.len() >= 3 {
                return stripped.to_string();
            }
        }
    }
    w.to_string()
}

/// Inverse document frequency of a term found in `df` of `n` documents.
fn idf(n: f64, df: usize) -> f64 {
    ((n + 1.0) / (df as f64 + 1.0)).ln() + 1.0
}

impl TfIdfIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if called after [`TfIdfIndex::finalize`].
    pub fn add_document(&mut self, text: &str) -> usize {
        assert!(!self.finalized, "index already finalized");
        let mut tf: HashMap<String, f64> = HashMap::new();
        for w in tokenize(text) {
            *tf.entry(w).or_insert(0.0) += 1.0;
        }
        let doc_id = self.docs;
        for (term, freq) in tf {
            self.postings.entry(term).or_default().push((doc_id, freq));
        }
        self.docs += 1;
        doc_id
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs
    }

    /// True when no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// Turns the term frequencies into normalized tf-idf weights. Must be
    /// called once after all documents are added and before queries.
    ///
    /// Each document's norm sums its squared weights in sorted term
    /// order, starting from −0.0 as `Iterator::sum` does.
    pub fn finalize(&mut self) {
        let n = self.docs as f64;
        let mut terms: Vec<(&String, &mut Vec<Posting>)> = self.postings.iter_mut().collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut sq_norms = vec![-0.0; self.docs];
        for (_, list) in &mut terms {
            let idf = idf(n, list.len());
            for (doc, w) in list.iter_mut() {
                *w = (1.0 + w.ln()) * idf;
                sq_norms[*doc] += *w * *w;
            }
        }
        let norms: Vec<f64> = sq_norms.into_iter().map(f64::sqrt).collect();
        for (_, list) in terms {
            for (doc, w) in list.iter_mut() {
                if norms[*doc] > 0.0 {
                    *w /= norms[*doc];
                }
            }
        }
        self.finalized = true;
    }

    /// Returns the top-`k` documents by cosine similarity to the query.
    ///
    /// Each document's dot product adds the query's terms in sorted
    /// order, starting from −0.0, so its score has the bits of a
    /// `sum()` over that document's matching terms.
    ///
    /// # Panics
    ///
    /// Panics if the index has not been finalized.
    pub fn query(&self, text: &str, k: usize) -> Vec<Hit> {
        assert!(self.finalized, "finalize the index before querying");
        let n = self.docs as f64;
        // Each distinct query term with its weight and its postings.
        let mut q: BTreeMap<String, (f64, &[Posting])> = BTreeMap::new();
        for w in tokenize(text) {
            q.entry(w)
                .or_insert_with_key(|term| {
                    let list = self.postings.get(term).map_or(&[][..], Vec::as_slice);
                    (0.0, list)
                })
                .0 += 1.0;
        }
        for (x, list) in q.values_mut() {
            *x = (1.0 + x.ln()) * idf(n, list.len());
        }
        let qnorm = q.values().map(|(x, _)| x * x).sum::<f64>().sqrt();
        if qnorm == 0.0 {
            return Vec::new();
        }

        let mut hits: Vec<Hit> = (0..self.docs)
            .map(|doc_id| Hit {
                doc_id,
                score: -0.0,
            })
            .collect();
        for (x, list) in q.values() {
            for &(doc, y) in *list {
                hits[doc].score += x * y;
            }
        }
        for h in &mut hits {
            h.score /= qnorm;
        }
        hits.retain(|h| h.score > 0.0);
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full-scan scorer the inverted index replaced, kept as the
    /// oracle: one normalized term vector per document, and a query
    /// probes every vector once per query term.
    struct FullScan {
        df: HashMap<String, usize>,
        vectors: Vec<HashMap<String, f64>>,
    }

    /// Euclidean norm of a term vector, summed in sorted term order.
    fn norm(v: &HashMap<String, f64>) -> f64 {
        let mut terms: Vec<(&String, &f64)> = v.iter().collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        terms.iter().map(|(_, &x)| x * x).sum::<f64>().sqrt()
    }

    impl FullScan {
        fn new(texts: &[String]) -> Self {
            let docs: Vec<HashMap<String, f64>> = texts
                .iter()
                .map(|text| {
                    let mut tf: HashMap<String, f64> = HashMap::new();
                    for w in tokenize(text) {
                        *tf.entry(w).or_insert(0.0) += 1.0;
                    }
                    tf
                })
                .collect();
            let mut df: HashMap<String, usize> = HashMap::new();
            for term in docs.iter().flat_map(HashMap::keys) {
                *df.entry(term.clone()).or_insert(0) += 1;
            }
            let n = docs.len() as f64;
            let vectors = docs
                .iter()
                .map(|tf| {
                    let mut v: HashMap<String, f64> = tf
                        .iter()
                        .map(|(term, &freq)| {
                            let df = df[term] as f64;
                            let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
                            (term.clone(), (1.0 + freq.ln()) * idf)
                        })
                        .collect();
                    let norm = norm(&v);
                    if norm > 0.0 {
                        for x in v.values_mut() {
                            *x /= norm;
                        }
                    }
                    v
                })
                .collect();
            FullScan { df, vectors }
        }

        fn query(&self, text: &str, k: usize) -> Vec<Hit> {
            let n = self.vectors.len() as f64;
            let mut q: BTreeMap<String, f64> = BTreeMap::new();
            for w in tokenize(text) {
                *q.entry(w).or_insert(0.0) += 1.0;
            }
            for (term, x) in q.iter_mut() {
                let df = self.df.get(term).copied().unwrap_or(0) as f64;
                let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
                *x = (1.0 + x.ln()) * idf;
            }
            let qnorm = q.values().map(|x| x * x).sum::<f64>().sqrt();
            if qnorm == 0.0 {
                return Vec::new();
            }
            let mut hits: Vec<Hit> = self
                .vectors
                .iter()
                .enumerate()
                .map(|(doc_id, v)| {
                    let dot: f64 = q
                        .iter()
                        .filter_map(|(term, &x)| v.get(term).map(|&y| x * y))
                        .sum();
                    Hit {
                        doc_id,
                        score: dot / qnorm,
                    }
                })
                .filter(|h| h.score > 0.0)
                .collect();
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id)));
            hits.truncate(k);
            hits
        }
    }

    fn hit_bits(hits: &[Hit]) -> Vec<(usize, u64)> {
        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
    }

    /// Stems, short words the stemmer leaves alone, and a non-ASCII one.
    const STEMS: [&str; 14] = [
        "pole",
        "gain",
        "miller",
        "compensat",
        "stag",
        "load",
        "bias",
        "allocat",
        "driv",
        "zero",
        "damp",
        "cap",
        "µamp",
        "node",
    ];
    const SUFFIXES: [&str; 6] = ["", "s", "ed", "ing", "ation", "ations"];
    const SHORT: [&str; 5] = ["a", "of", "is", "bus", "as"];
    const SEPARATORS: [&str; 8] = [" ", ", ", "-", "! ", " (", ") ", "\t", "/"];

    /// One word of the test vocabulary, in random case.
    fn word(rng: &mut StdRng) -> String {
        let w = if rng.gen_bool(0.15) {
            SHORT[rng.gen_range(0..SHORT.len())].to_string()
        } else {
            let stem = STEMS[rng.gen_range(0..STEMS.len())];
            format!("{stem}{}", SUFFIXES[rng.gen_range(0..SUFFIXES.len())])
        };
        match rng.gen_range(0..4) {
            0 => w.to_uppercase(),
            1 => w
                .chars()
                .enumerate()
                .map(|(i, c)| if i == 0 { c.to_ascii_uppercase() } else { c })
                .collect(),
            _ => w,
        }
    }

    /// Joins words with random punctuation.
    fn text(rng: &mut StdRng, words: &[String]) -> String {
        let mut out = String::new();
        for w in words {
            out.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
            out.push_str(w);
        }
        out
    }

    /// A document of 0–16 words, some of them repeated.
    fn document(rng: &mut StdRng) -> String {
        let mut words: Vec<String> = (0..rng.gen_range(0..=16)).map(|_| word(rng)).collect();
        for _ in 0..rng.gen_range(0..4) {
            if let Some(w) = words.first().cloned() {
                words.push(w);
            }
        }
        text(rng, &words)
    }

    /// A query mixing indexed, unseen and repeated terms.
    fn query_text(rng: &mut StdRng, corpus: &[String]) -> String {
        let mut words: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(1..=12) {
            match rng.gen_range(0..6) {
                0 => words.push(format!("unseen{}", rng.gen_range(0..5))),
                1 => {
                    if let Some(w) = words.last().cloned() {
                        words.push(w);
                    }
                }
                2 => {
                    let doc = &corpus[rng.gen_range(0..corpus.len())];
                    words.extend(tokenize(doc).into_iter().take(rng.gen_range(0..8)));
                }
                _ => words.push(word(rng)),
            }
        }
        text(rng, &words)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The inverted index returns what the full scan returns: the
        /// same documents in the same order, and every score bit for
        /// bit.
        #[test]
        fn index_matches_the_full_scan_oracle(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let corpus: Vec<String> = (0..rng.gen_range(1..=80)).map(|_| document(&mut rng)).collect();
            let mut idx = TfIdfIndex::new();
            for doc in &corpus {
                idx.add_document(doc);
            }
            idx.finalize();
            let oracle = FullScan::new(&corpus);
            let n = corpus.len();
            prop_assert_eq!(idx.len(), n);

            // A copy of an indexed document always retrieves something.
            let copy = corpus[rng.gen_range(0..n)].clone();
            prop_assert!(tokenize(&copy).is_empty() || !idx.query(&copy, 1).is_empty());
            let mut queries: Vec<String> = vec![String::new(), "?! ,-- ()".to_string(), copy];
            queries.extend((0..8).map(|_| query_text(&mut rng, &corpus)));
            for query in &queries {
                for k in [0, 1, 5, n + 3] {
                    let want = oracle.query(query, k);
                    let got = idx.query(query, k);
                    prop_assert_eq!(hit_bits(&got), hit_bits(&want), "query {:?}, k {}", query, k);
                }
            }
            prop_assert!(idx.query("", n).is_empty());
            prop_assert!(idx.query("?! ,-- ()", n).is_empty());
        }
    }

    fn sample_index() -> TfIdfIndex {
        let mut idx = TfIdfIndex::new();
        idx.add_document(
            "nested miller compensation controls the dominant pole of a three stage opamp",
        );
        idx.add_document("the damping factor control block drives large capacitive loads");
        idx.add_document("bayesian optimization tunes circuit parameters with gaussian processes");
        idx.finalize();
        idx
    }

    #[test]
    fn relevant_document_ranks_first() {
        let idx = sample_index();
        let hits = idx.query("how should the dominant pole be compensated?", 3);
        assert_eq!(hits[0].doc_id, 0, "{hits:?}");
        let hits = idx.query("what block can drive a large capacitive load?", 3);
        assert_eq!(hits[0].doc_id, 1);
        let hits = idx.query("gaussian process parameter optimization", 3);
        assert_eq!(hits[0].doc_id, 2);
    }

    #[test]
    fn scores_are_cosines_in_unit_range() {
        let idx = sample_index();
        for h in idx.query("miller compensation pole", 3) {
            assert!(h.score > 0.0 && h.score <= 1.0 + 1e-12, "{h:?}");
        }
    }

    #[test]
    fn identical_query_scores_near_one() {
        let mut idx = TfIdfIndex::new();
        idx.add_document("alpha beta gamma");
        idx.finalize();
        let hits = idx.query("alpha beta gamma", 1);
        assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_overlap_means_no_hits() {
        let idx = sample_index();
        assert!(idx.query("xylophone zephyr", 5).is_empty());
        assert!(idx.query("", 5).is_empty());
    }

    #[test]
    fn k_truncates() {
        let idx = sample_index();
        assert_eq!(idx.query("the", 1).len().max(1), 1);
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn query_before_finalize_panics() {
        let mut idx = TfIdfIndex::new();
        idx.add_document("a b c");
        idx.query("a", 1);
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn add_after_finalize_panics() {
        let mut idx = TfIdfIndex::new();
        idx.add_document("a");
        idx.finalize();
        idx.add_document("b");
    }

    #[test]
    fn scores_are_bit_identical_across_calls_and_builds() {
        // Enough distinct terms that hash-order summation would round
        // differently between maps built with different hash seeds.
        let words: Vec<String> = (0..40).map(|k| format!("term{k}x")).collect();
        let build = || {
            let mut idx = TfIdfIndex::new();
            for d in 0..12 {
                let text: Vec<&str> = words
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| (k * 7 + d * 3) % 5 != 0)
                    .flat_map(|(k, w)| std::iter::repeat_n(w.as_str(), 1 + (k + d) % 4))
                    .collect();
                idx.add_document(&text.join(" "));
            }
            idx.finalize();
            idx
        };
        let bits = |idx: &TfIdfIndex, query: &str| -> Vec<(usize, u64)> {
            idx.query(query, 12)
                .iter()
                .map(|h| (h.doc_id, h.score.to_bits()))
                .collect()
        };
        let (a, b) = (build(), build());
        for q in 0..10 {
            let query: Vec<&str> = words
                .iter()
                .skip(q)
                .step_by(2)
                .flat_map(|w| std::iter::repeat_n(w.as_str(), 1 + q % 3))
                .collect();
            let query = query.join(" ");
            let first = bits(&a, &query);
            assert!(!first.is_empty());
            assert_eq!(first, bits(&a, &query), "same index, query {q}");
            assert_eq!(first, bits(&b, &query), "second build, query {q}");
        }
    }

    #[test]
    fn tokenization_strips_punctuation_and_case() {
        let mut idx = TfIdfIndex::new();
        idx.add_document("Miller-compensation, (nested)!");
        idx.finalize();
        let hits = idx.query("miller compensation nested", 1);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].score > 0.9);
    }
}

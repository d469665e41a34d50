//! TF-IDF retrieval with cosine ranking.
//!
//! The SFT stage's functional payload: after indexing the DesignQA set,
//! answering a prompter question reduces to retrieving the best-matching
//! training question and emitting (a perturbed copy of) its answer.
//!
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
    /// Raw term-frequency vectors per document.
    docs: Vec<HashMap<String, f64>>,
    /// Document frequency per term.
    df: HashMap<String, usize>,
    /// Normalized tf-idf vectors (built by `finalize`).
    vectors: Vec<HashMap<String, f64>>,
    finalized: bool,
}

/// Euclidean norm of a term vector, summed in sorted term order.
fn norm(v: &HashMap<String, f64>) -> f64 {
    let mut terms: Vec<(&String, &f64)> = v.iter().collect();
    terms.sort_unstable_by(|a, b| a.0.cmp(b.0));
    terms.iter().map(|(_, &x)| x * x).sum::<f64>().sqrt()
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
        for term in tf.keys() {
            *self.df.entry(term.clone()).or_insert(0) += 1;
        }
        self.docs.push(tf);
        self.docs.len() - 1
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Builds the normalized tf-idf vectors. Must be called once after
    /// all documents are added and before queries.
    pub fn finalize(&mut self) {
        let n = self.docs.len() as f64;
        self.vectors = self
            .docs
            .iter()
            .map(|tf| {
                let mut v: HashMap<String, f64> = tf
                    .iter()
                    .map(|(term, &freq)| {
                        let df = self.df[term] as f64;
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
        self.finalized = true;
    }

    /// Returns the top-`k` documents by cosine similarity to the query.
    ///
    /// # Panics
    ///
    /// Panics if the index has not been finalized.
    pub fn query(&self, text: &str, k: usize) -> Vec<Hit> {
        assert!(self.finalized, "finalize the index before querying");
        let n = self.docs.len() as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

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

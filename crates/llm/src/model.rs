//! The [`DomainLm`] façade: two-stage training (DAPT + SFT) and QA
//! answering — the functional stand-in for Artisan-LLM.
//!
//! Both stages stream their documents: each is encoded and its n-grams
//! counted before the next is read, so no stage holds every document's
//! encoding at once.

use crate::ngram::NgramLm;
use crate::retrieval::TfIdfIndex;
use crate::tokenizer::BpeTokenizer;
use rand::Rng;

/// An answer produced by the model.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The answer text (the retrieved training answer).
    pub text: String,
    /// Retrieval confidence (cosine similarity of the matched question).
    pub confidence: f64,
    /// Index of the matched QA pair.
    pub matched_pair: usize,
}

/// The domain language model: tokenizer + n-gram LM (DAPT) + retrieval
/// QA head (SFT).
///
/// Training mirrors §3.4's two-step process:
///
/// 1. [`DomainLm::pretrain`] — *domain-adaptive pretraining*: the BPE
///    tokenizer and the n-gram distribution are fitted on the domain
///    corpus. [`DomainLm::perplexity`] before/after quantifies the
///    adaptation.
/// 2. [`DomainLm::fine_tune`] — *supervised fine-tuning*: the DesignQA
///    pairs are indexed; [`DomainLm::answer`] retrieves the best match
///    for a question. With `temperature > 0`, retrieval occasionally
///    picks a lower-ranked document — the noise source behind the
///    paper's non-perfect success rates.
#[derive(Debug, Clone)]
pub struct DomainLm {
    vocab_budget: usize,
    order: usize,
    tokenizer: Option<BpeTokenizer>,
    ngram: Option<NgramLm>,
    qa_index: Option<TfIdfIndex>,
    answers: Vec<String>,
    pretrained_docs: usize,
}

impl DomainLm {
    /// Creates an untrained model with a tokenizer vocabulary budget and
    /// n-gram order.
    pub fn new(vocab_budget: usize, order: usize) -> Self {
        DomainLm {
            vocab_budget,
            order,
            tokenizer: None,
            ngram: None,
            qa_index: None,
            answers: Vec::new(),
            pretrained_docs: 0,
        }
    }

    /// Stage 1 — DAPT: trains the tokenizer and fits the n-gram model on
    /// the domain corpus, one document at a time.
    pub fn pretrain(&mut self, corpus: &[&str]) {
        let tokenizer = BpeTokenizer::train(corpus, self.vocab_budget);
        let mut ngram = NgramLm::new(self.order, tokenizer.vocab_size() + 1);
        for doc in corpus {
            let ids = tokenizer.encode(doc);
            if !ids.is_empty() {
                ngram.observe(&ids);
            }
        }
        self.pretrained_docs = corpus.len();
        self.tokenizer = Some(tokenizer);
        self.ngram = Some(ngram);
    }

    /// Stage 2 — SFT: indexes question→answer pairs and continues n-gram
    /// training on the answer texts.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DomainLm::pretrain`] — the paper's
    /// pipeline order is DAPT then SFT.
    #[allow(clippy::expect_used)] // the documented panic contract above
    pub fn fine_tune(&mut self, qa_pairs: &[(&str, &str)]) {
        let tokenizer = self
            .tokenizer
            .as_ref()
            .expect("pretrain (DAPT) before fine_tune (SFT)");
        let ngram = self.ngram.as_mut().expect("pretrain before fine_tune");
        let mut index = TfIdfIndex::new();
        self.answers.clear();
        for (q, a) in qa_pairs {
            index.add_document(q);
            self.answers.push((*a).to_string());
            let ids = tokenizer.encode(a);
            if !ids.is_empty() {
                ngram.observe(&ids);
            }
        }
        index.finalize();
        self.qa_index = Some(index);
    }

    /// True once both training stages have run.
    pub fn is_trained(&self) -> bool {
        self.tokenizer.is_some() && self.qa_index.is_some()
    }

    /// Number of pretraining documents consumed.
    pub fn pretrained_docs(&self) -> usize {
        self.pretrained_docs
    }

    /// Number of fine-tuning pairs indexed.
    pub fn qa_pairs(&self) -> usize {
        self.answers.len()
    }

    /// Perplexity of held-out text under the DAPT-fitted distribution.
    /// Returns `None` before pretraining or for empty text.
    pub fn perplexity(&self, text: &str) -> Option<f64> {
        let tokenizer = self.tokenizer.as_ref()?;
        let ngram = self.ngram.as_ref()?;
        let ids = tokenizer.encode(text);
        ngram.perplexity(&ids)
    }

    /// Answers a question by retrieval.
    ///
    /// `temperature = 0` always returns the best match. With positive
    /// temperature, the choice among the top matches is softmax-sampled
    /// on `score/temperature` — modelling the generation noise of a real
    /// LLM. Returns `None` when untrained or when nothing matches.
    pub fn answer<R: Rng + ?Sized>(
        &self,
        question: &str,
        temperature: f64,
        rng: &mut R,
    ) -> Option<Answer> {
        let index = self.qa_index.as_ref()?;
        let hits = index.query(question, 5);
        if hits.is_empty() {
            return None;
        }
        let chosen = if temperature <= 0.0 || hits.len() == 1 {
            &hits[0]
        } else {
            let weights: Vec<f64> = hits.iter().map(|h| (h.score / temperature).exp()).collect();
            let total: f64 = weights.iter().sum();
            let mut draw = rng.gen_range(0.0..total);
            let mut pick = hits.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    pick = i;
                    break;
                }
            }
            &hits[pick]
        };
        Some(Answer {
            text: self.answers[chosen.doc_id].clone(),
            confidence: chosen.score,
            matched_pair: chosen.doc_id,
        })
    }

    /// Generates free text from a seed string (n-gram sampling) — used
    /// for qualitative inspection of what DAPT absorbed.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        seed: &str,
        max_tokens: usize,
        temperature: f64,
        rng: &mut R,
    ) -> Option<String> {
        let tokenizer = self.tokenizer.as_ref()?;
        let ngram = self.ngram.as_ref()?;
        let ids = tokenizer.encode(seed);
        let out = ngram.generate(&ids, max_tokens, temperature, rng);
        Some(tokenizer.decode(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CORPUS: &[&str] = &[
        "the nested miller compensation architecture uses two miller capacitors to control the dominant and non dominant poles",
        "a damping factor control block is a gain stage with a feedback capacitor that damps the complex pole pair",
        "the butterworth methodology sets the pole ratio to one two four for maximal flatness",
    ];

    fn trained() -> DomainLm {
        let mut lm = DomainLm::new(600, 3);
        lm.pretrain(CORPUS);
        lm.fine_tune(&[
            (
                "which architecture suits moderate specs with a small load?",
                "use the nested miller compensation architecture with capacitors cm1 and cm2",
            ),
            (
                "how can the opamp drive a very large capacitive load?",
                "add a damping factor control block and remove the inner miller capacitor",
            ),
            (
                "how should the poles be allocated?",
                "follow the butterworth methodology with gbw to p2 to p3 ratio of one to two to four",
            ),
        ]);
        lm
    }

    #[test]
    fn pipeline_order_is_enforced() {
        let mut lm = DomainLm::new(100, 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lm.fine_tune(&[("q", "a")]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn greedy_answers_are_correct_retrievals() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(0);
        let a = lm
            .answer(
                "what architecture for a small capacitive load?",
                0.0,
                &mut rng,
            )
            .unwrap();
        assert!(a.text.contains("nested miller"), "{}", a.text);
        let a = lm
            .answer(
                "we must drive a huge capacitive load, what now?",
                0.0,
                &mut rng,
            )
            .unwrap();
        assert!(a.text.contains("damping factor"), "{}", a.text);
        let a = lm.answer("pole allocation ratio?", 0.0, &mut rng).unwrap();
        assert!(a.text.contains("butterworth"), "{}", a.text);
    }

    #[test]
    fn dapt_makes_domain_text_more_predictable() {
        // Perplexities are only comparable under one tokenizer: hold the
        // model fixed, vary the text.
        let mut lm = DomainLm::new(600, 3);
        lm.pretrain(CORPUS);
        let in_domain = "the nested miller compensation capacitors control the poles";
        let off_domain = "completely unrelated words about cooking pasta dinners";
        let ppl_in = lm.perplexity(in_domain).unwrap();
        let ppl_off = lm.perplexity(off_domain).unwrap();
        assert!(
            ppl_in < ppl_off / 2.0,
            "in-domain {ppl_in} vs off-domain {ppl_off}"
        );
    }

    #[test]
    fn temperature_injects_retrieval_noise() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(7);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let a = lm
                .answer(
                    "how should the opamp poles and load be handled?",
                    1.0,
                    &mut rng,
                )
                .unwrap();
            distinct.insert(a.matched_pair);
        }
        assert!(distinct.len() > 1, "temperature produced no diversity");
    }

    #[test]
    fn unmatched_question_returns_none() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(lm.answer("zzz qqq xxx", 0.0, &mut rng).is_none());
    }

    #[test]
    fn untrained_model_answers_none() {
        let lm = DomainLm::new(100, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(lm.answer("anything", 0.0, &mut rng).is_none());
        assert!(!lm.is_trained());
        assert!(lm.perplexity("x").is_none());
    }

    #[test]
    fn generation_produces_domain_text() {
        let lm = trained();
        let mut rng = StdRng::seed_from_u64(3);
        let text = lm.generate("the nested", 12, 0.2, &mut rng).unwrap();
        assert!(text.starts_with("the nested"), "{text}");
        assert!(text.len() > "the nested".len());
    }

    #[test]
    fn identically_trained_models_generate_identical_text() {
        // Each model's count maps hash with their own random seed, so
        // sampling must not walk them in map order.
        let (a, b) = (trained(), trained());
        for seed in 0..20 {
            let text = |lm: &DomainLm| {
                let mut rng = StdRng::seed_from_u64(seed);
                lm.generate("the nested", 12, 1.0, &mut rng).unwrap()
            };
            assert_eq!(text(&a), text(&b), "seed {seed}");
        }
    }

    #[test]
    fn counters_report_training_volume() {
        let lm = trained();
        assert!(lm.is_trained());
        assert_eq!(lm.pretrained_docs(), 3);
        assert_eq!(lm.qa_pairs(), 3);
    }
}

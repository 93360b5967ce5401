//! A timing [`Matcher`] decorator.
//!
//! Placed directly around the model, below any score cache, so every call
//! it sees is real model work: its spans are model time and its pair count
//! is the number of cache misses. It forwards `score_batch` as one inner
//! batch call, so a vectorized model keeps its batch path.

use crate::trace::Tracer;
use certa_core::{BoxedMatcher, Matcher, Record};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Span name of one model call.
pub const MODEL_SPAN: &str = "models.score";

/// Call and pair counters of a [`TimingMatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounts {
    /// `score` plus `score_batch` invocations.
    pub calls: u64,
    /// Pairs scored across all calls.
    pub pairs: u64,
}

pub struct TimingMatcher {
    inner: BoxedMatcher,
    tracer: Arc<Tracer>,
    calls: AtomicU64,
    pairs: AtomicU64,
}

impl TimingMatcher {
    pub fn new(inner: BoxedMatcher, tracer: Arc<Tracer>) -> Arc<TimingMatcher> {
        Arc::new(TimingMatcher {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
        })
    }

    pub fn counts(&self) -> ModelCounts {
        ModelCounts {
            calls: self.calls.load(Ordering::Relaxed),
            pairs: self.pairs.load(Ordering::Relaxed),
        }
    }

    fn count(&self, pairs: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.pairs.fetch_add(pairs as u64, Ordering::Relaxed);
    }
}

impl Matcher for TimingMatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        self.count(1);
        let _span = self.tracer.span(MODEL_SPAN, None);
        self.inner.score(u, v)
    }

    fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
        self.count(pairs.len());
        let _span = self.tracer.span(MODEL_SPAN, None);
        self.inner.score_batch(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, RecordId};

    /// A model whose batch path is observable: it counts batch calls and
    /// scores batched pairs exactly like single ones.
    struct BatchAware {
        batches: AtomicU64,
    }

    impl Matcher for BatchAware {
        fn name(&self) -> &str {
            "batch-aware"
        }
        fn score(&self, u: &Record, v: &Record) -> f64 {
            let a = u.content_hash() as f64 / u64::MAX as f64;
            let b = v.content_hash() as f64 / u64::MAX as f64;
            (a * 0.7 + b * 0.3).sqrt()
        }
        fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            pairs.iter().map(|(u, v)| self.score(u, v)).collect()
        }
    }

    fn rec(id: u32, text: &str) -> Record {
        Record::new(RecordId(id), vec![text.to_string(), format!("{text} {id}")])
    }

    #[test]
    fn scores_are_bit_identical_and_batches_are_forwarded() {
        let model = Arc::new(BatchAware {
            batches: AtomicU64::new(0),
        });
        let tracer = Tracer::new(true);
        let timed = TimingMatcher::new(Arc::clone(&model) as BoxedMatcher, Arc::clone(&tracer));
        let left: Vec<Record> = (0..9).map(|i| rec(i, &format!("left {i}"))).collect();
        let right: Vec<Record> = (0..9)
            .map(|i| rec(i, &format!("right {}", i * 7)))
            .collect();
        let pairs: Vec<(&Record, &Record)> = left.iter().zip(&right).collect();

        for (u, v) in &pairs {
            assert_eq!(timed.score(u, v).to_bits(), model.score(u, v).to_bits());
        }
        let direct = model.score_batch(&pairs);
        let through = timed.score_batch(&pairs);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&through), bits(&direct));
        // One direct batch plus exactly one forwarded batch: no fallback
        // to per-pair scoring.
        assert_eq!(model.batches.load(Ordering::Relaxed), 2);
        assert_eq!(
            timed.counts(),
            ModelCounts {
                calls: 10,
                pairs: 18
            }
        );
        let spans = tracer.spans();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.name == MODEL_SPAN));
    }

    #[test]
    fn untraced_decorator_still_counts() {
        let inner =
            Arc::new(FnMatcher::new("const", |_: &Record, _: &Record| 0.25)) as BoxedMatcher;
        let tracer = Tracer::new(false);
        let timed = TimingMatcher::new(inner, Arc::clone(&tracer));
        let (u, v) = (rec(0, "a"), rec(1, "b"));
        assert_eq!(timed.score(&u, &v), 0.25);
        assert_eq!(timed.score_batch(&[(&u, &v), (&v, &u)]), vec![0.25, 0.25]);
        assert_eq!(timed.counts(), ModelCounts { calls: 2, pairs: 3 });
        assert!(tracer.spans().is_empty());
    }
}

//! Ditto featurization over per-batch dictionaries of memoized per-value
//! pieces.
//!
//! Ditto serializes a record as `col0 <segment 0> col1 <segment 1> …`,
//! trimmed at the end, and compares two serializations as whole strings.
//! Attribute `i` holding value `x` therefore always contributes the same
//! text, `col<i> <segment(x)>`: a [`DittoPiece`]. A piece keeps what the
//! pair step needs of that text, with the tokens already hashed and the
//! trigrams already packed, and the [`FeatureMemo`] keeps one piece per
//! attribute position, value and end.
//!
//! [`views`] featurizes a whole batch of records at once. It numbers the
//! distinct packed trigrams and distinct kept tokens of the batch's pieces
//! densely, in order of first appearance, and writes each record as two
//! bitsets over those ids: the OR of its pieces' trigrams and the OR of
//! its pieces' tokens. The pair step ([`combine`]) is then word-wise: both
//! Jaccards are popcounts of an AND, and the hashed crosses walk the set
//! bits of `u & v` (`both:`, +1) and `u ^ v` (`only:`, −0.5). A bitset is
//! ⌈D/64⌉ words for the batch's own D distinct ids, so a lattice level's
//! copies, which share all but a few pieces, stay a few words wide.
//!
//! The result is bit-identical to featurizing the two whole serializations
//! (the test-only oracle below does exactly that):
//! * every piece starts with `col<i>`, so tokens never span two pieces, and
//!   a token in two attributes gets one id, so a record's token set is the
//!   union of its pieces';
//! * a piece is at least four chars long, so no trigram spans three, and
//!   every piece starts with `co`: an inner piece's trigrams are those of
//!   its text followed by `co`, which holds the two trigrams spanning the
//!   junction with the next piece, whatever that piece is;
//! * the serializer's trailing trim only ever reaches into the last
//!   attribute's piece, which is why that piece is built trimmed;
//! * the hashed token buckets receive ±1 and ±0.5 from a zero start, so
//!   every partial sum is exact and adding them in id order rather than in
//!   token order cannot change a bit.

use crate::memo::FeatureMemo;
use certa_core::hash::FxHashMap;
use certa_core::tokens::clean;
use certa_core::{AttrValue, Record, ValueId};
use certa_ml::FeatureHasher;
use certa_text::{levenshtein_sim, packed_trigrams, parse_number};
use std::sync::Arc;

/// Serialize one value's tokens Ditto-style (numbers rounded to integers —
/// Ditto's number normalization DK injection — other tokens cleaned), each
/// token followed by one space. Pure per-value function; the `col<i>` prefix
/// is attribute-positional and belongs to the piece.
pub(crate) fn segment(value: &AttrValue) -> String {
    let mut s = String::new();
    // Parse numbers on the *raw* tokens (cleaning would split "379.72"),
    // then clean the surviving text tokens.
    for tok in value.tokens() {
        match parse_number(tok) {
            Some(n) => s.push_str(&format!("{}", n.round() as i64)),
            None => s.push_str(&clean(tok)),
        }
        s.push(' ');
    }
    s
}

/// A precomputed hashed-feature slot: bucket index `<< 1`, sign in bit 0.
#[derive(Debug, Clone, Copy)]
struct Slot(u32);

impl Slot {
    fn of(hasher: &FeatureHasher, prefix: &str, token: &str, scratch: &mut String) -> Slot {
        scratch.clear();
        scratch.push_str(prefix);
        scratch.push_str(token);
        let (idx, sign) = hasher.slot(scratch);
        let idx = u32::try_from(idx).expect("hash bucket index fits in u32");
        Slot(idx << 1 | u32::from(sign < 0.0))
    }

    /// Exactly [`FeatureHasher::add`] for the feature this slot was made
    /// from.
    fn add(self, out: &mut [f64], weight: f64) {
        let sign = if self.0 & 1 == 0 { 1.0 } else { -1.0 };
        out[(self.0 >> 1) as usize] += sign * weight;
    }
}

/// One distinct value token: a byte range into the piece's segment, and
/// the slots of its `both:` and `only:` cross features.
#[derive(Debug, Clone, Copy)]
struct Token {
    start: u32,
    end: u32,
    both: Slot,
    only: Slot,
}

/// Attribute `i` with one value, as it appears in a Ditto serialization:
/// the text `col<i> <segment>`, trimmed at the end when `i` is the record's
/// last attribute. Holds no text of its own: tokens are ranges into the
/// shared segment string.
#[derive(Debug)]
pub(crate) struct DittoPiece {
    segment: Arc<str>,
    /// Distinct tokens kept as features (the `col` filter applied).
    tokens: Box<[Token]>,
    /// Byte range of the first kept token, in serialization order.
    first: Option<(u32, u32)>,
    /// Kept tokens, repeats included.
    count: u32,
    /// Distinct packed trigrams of the text, and for an inner piece also
    /// of the junction with the next piece (the text followed by `co`).
    trigrams: Box<[u64]>,
}

impl DittoPiece {
    /// Build attribute `attr`'s piece around a value's segment.
    pub(crate) fn build(
        hasher: &FeatureHasher,
        attr: usize,
        segment: Arc<str>,
        last: bool,
    ) -> DittoPiece {
        assert!(
            segment.len() <= u32::MAX as usize,
            "Ditto segment too large for a piece"
        );
        let mut text = format!("col{attr} ");
        text.push_str(&segment);
        if last {
            text.truncate(text.trim_end().len());
        } else {
            text.push_str("co");
        }

        // Serializer markers `col<i>` and value tokens that merely start
        // with `col` are dropped alike — the documented quirk.
        let base = segment.as_ptr() as usize;
        let mut ranges: Vec<(u32, u32)> = segment
            .split_whitespace()
            .filter(|t| !t.starts_with("col"))
            .map(|t| {
                let start = t.as_ptr() as usize - base;
                (start as u32, (start + t.len()) as u32)
            })
            .collect();
        let count = ranges.len() as u32;
        let first = ranges.first().copied();
        let at = |(a, b): (u32, u32)| &segment[a as usize..b as usize];
        ranges.sort_unstable_by(|&x, &y| at(x).cmp(at(y)));
        ranges.dedup_by(|x, y| at(*x) == at(*y));
        let mut scratch = String::new();
        let tokens = ranges
            .iter()
            .map(|&(start, end)| {
                let token = at((start, end));
                Token {
                    start,
                    end,
                    both: Slot::of(hasher, "both:", token, &mut scratch),
                    only: Slot::of(hasher, "only:", token, &mut scratch),
                }
            })
            .collect();
        DittoPiece {
            trigrams: packed_trigrams(&text).into_boxed_slice(),
            segment,
            tokens,
            first,
            count,
        }
    }

    fn text(&self, (start, end): (u32, u32)) -> &str {
        &self.segment[start as usize..end as usize]
    }
}

/// What a record's view holds besides its two bitsets.
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// The batch piece holding the record's first kept token, if any.
    first: Option<u32>,
    /// Kept tokens, repeats included.
    count: usize,
    /// Distinct trigrams of the serialization: the trigram bitset's
    /// popcount.
    trigrams: usize,
    /// Distinct kept tokens: the token bitset's popcount.
    tokens: usize,
}

/// The views of one batch of records: each record's trigram set and token
/// set as bitsets over the batch's dictionary, ready to be paired by
/// [`combine`].
#[derive(Debug)]
pub(crate) struct DittoViews {
    /// The batch's distinct pieces.
    pieces: Vec<Arc<DittoPiece>>,
    /// The `both:` and `only:` slots of each token id.
    slots: Vec<(Slot, Slot)>,
    /// Words of a record's trigram bitset; its token bitset follows.
    trigram_words: usize,
    /// One row of bitsets per record, in batch order.
    bits: Vec<u64>,
    summaries: Vec<Summary>,
}

impl DittoViews {
    /// Record `r`'s trigram bitset and token bitset.
    fn row(&self, r: usize) -> (&[u64], &[u64]) {
        let width = self.trigram_words + self.slots.len().div_ceil(64);
        self.bits[r * width..(r + 1) * width].split_at(self.trigram_words)
    }

    fn first(&self, s: &Summary) -> &str {
        s.first.map_or("", |p| {
            let piece = &self.pieces[p as usize];
            piece.text(piece.first.expect("the first piece holds a kept token"))
        })
    }
}

/// The views of a batch of records. Each distinct piece of the batch is
/// fetched from `memo` (or built, without one) once, and its trigrams and
/// tokens are looked up in the batch's dictionary once: the copies of one
/// lattice level share all but a few of their pieces.
pub(crate) fn views(
    hasher: &FeatureHasher,
    records: &[&Record],
    memo: Option<&FeatureMemo>,
) -> DittoViews {
    let mut index: FxHashMap<(u32, ValueId, bool), u32> = FxHashMap::default();
    let mut pieces: Vec<Arc<DittoPiece>> = Vec::new();
    // Each record as the batch indices of its pieces, in attribute order.
    let mut layout: Vec<u32> = Vec::with_capacity(records.iter().map(|r| r.arity()).sum());
    for r in records {
        for (i, value) in r.values().iter().enumerate() {
            let attr = u32::try_from(i).expect("attribute index fits in u32");
            let (id, last) = (value.id(), i + 1 == r.arity());
            let p = *index.entry((attr, id, last)).or_insert_with(|| {
                pieces.push(match memo {
                    Some(m) => m.ditto_piece(attr, id, last, || {
                        DittoPiece::build(hasher, i, m.segment(id, || segment(value)), last)
                    }),
                    None => Arc::new(DittoPiece::build(
                        hasher,
                        i,
                        Arc::from(segment(value)),
                        last,
                    )),
                });
                u32::try_from(pieces.len() - 1).expect("piece index fits in u32")
            });
            layout.push(p);
        }
    }

    // The dictionary: dense ids in order of first appearance. `ids` holds
    // each piece's trigram ids, then its token ids; `ends[p]` is where
    // piece `p`'s two runs end.
    let mut trigram_ids = TrigramIds::with_capacity(pieces.iter().map(|p| p.trigrams.len()).sum());
    let mut token_ids: FxHashMap<&str, u32> = FxHashMap::default();
    let mut slots: Vec<(Slot, Slot)> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(
        pieces
            .iter()
            .map(|p| p.trigrams.len() + p.tokens.len())
            .sum(),
    );
    let mut ends: Vec<(usize, usize)> = Vec::with_capacity(pieces.len());
    for p in &pieces {
        ids.extend(p.trigrams.iter().map(|&g| trigram_ids.id(g)));
        let trigrams_end = ids.len();
        for t in p.tokens.iter() {
            let next = u32::try_from(slots.len()).expect("token id fits in u32");
            ids.push(
                *token_ids
                    .entry(p.text((t.start, t.end)))
                    .or_insert_with(|| {
                        slots.push((t.both, t.only));
                        next
                    }),
            );
        }
        ends.push((trigrams_end, ids.len()));
    }
    let trigram_words = (trigram_ids.len as usize).div_ceil(64);
    let width = trigram_words + slots.len().div_ceil(64);

    let mut bits = vec![0u64; records.len() * width];
    let mut summaries = Vec::with_capacity(records.len());
    let mut own = layout.as_slice();
    for (k, r) in records.iter().enumerate() {
        let (record, rest) = own.split_at(r.arity());
        own = rest;
        let (trigram_row, token_row) = bits[k * width..(k + 1) * width].split_at_mut(trigram_words);
        let mut count = 0;
        for &p in record {
            let p = p as usize;
            let start = if p == 0 { 0 } else { ends[p - 1].1 };
            let (trigrams_end, tokens_end) = ends[p];
            for &id in &ids[start..trigrams_end] {
                trigram_row[id as usize / 64] |= 1 << (id % 64);
            }
            for &id in &ids[trigrams_end..tokens_end] {
                token_row[id as usize / 64] |= 1 << (id % 64);
            }
            count += pieces[p].count as usize;
        }
        summaries.push(Summary {
            first: record
                .iter()
                .copied()
                .find(|&p| pieces[p as usize].first.is_some()),
            count,
            trigrams: popcount(trigram_row),
            tokens: popcount(token_row),
        });
    }
    DittoViews {
        pieces,
        slots,
        trigram_words,
        bits,
        summaries,
    }
}

/// Marks a free slot of [`TrigramIds`]: no packed trigram has all 64 bits
/// set.
const FREE: u64 = u64::MAX;

/// A batch's trigram dictionary: packed trigram → dense id, in order of
/// first lookup. Open addressing with linear probing, at most half full;
/// a trigram's first slot is the top bits of its product with a 64-bit
/// odd constant, which depend on every bit of the trigram. (`FxHasher`
/// leaves a `u64` key's low bits, here its last char, in the low bits a
/// std `HashMap` picks its bucket from, so trigrams ending alike collide.)
struct TrigramIds {
    table: Vec<(u64, u32)>,
    shift: u32,
    len: u32,
}

impl TrigramIds {
    /// A dictionary for at most `n` distinct trigrams.
    fn with_capacity(n: usize) -> TrigramIds {
        let slots = (2 * n).next_power_of_two().max(2);
        TrigramIds {
            table: vec![(FREE, 0); slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// The id of trigram `g`, a fresh one on first sight.
    fn id(&mut self, g: u64) -> u32 {
        debug_assert_ne!(g, FREE);
        let mask = self.table.len() - 1;
        let mut i = (g.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.table[i] {
                (key, id) if key == g => return id,
                (FREE, _) => {
                    assert!(
                        2 * (self.len as usize) < self.table.len(),
                        "more trigrams than the dictionary was sized for"
                    );
                    self.table[i] = (g, self.len);
                    self.len += 1;
                    return self.len - 1;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// `|A ∩ B| / |A ∪ B|` from the set sizes, 1 for two empty sets: the same
/// `f64` as `certa_text::trigram_sim` and the oracle's token Jaccard.
fn jaccard(inter: usize, a: usize, b: usize) -> f64 {
    let union = a + b - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Ditto's serialized-pair features of records `a` and `b` of one batch:
/// hashed shared/one-sided token crosses, token Jaccard, the trigram
/// similarity of the two whole serializations, the first token's edit
/// similarity, and the token-count gap.
///
/// Known quirk: the `col<i>` markers are dropped with
/// `!t.starts_with("col")`, which also drops real value tokens such as
/// `columbia`. IA at default scale (seed 7) has 100 of its 12,732 value
/// tokens starting with `col`; AB, FZ and DS have none. Fixing it moves every
/// Ditto score and fixture, so it is left for a model change of its own.
pub(crate) fn combine(hasher: &FeatureHasher, views: &DittoViews, a: usize, b: usize) -> Vec<f64> {
    let ((tu, ku), (tv, kv)) = (views.row(a), views.row(b));
    let (su, sv) = (&views.summaries[a], &views.summaries[b]);
    let mut hashed = Vec::with_capacity(hasher.dim() + 4);
    hashed.resize(hasher.dim(), 0.0);
    // Cross features: shared tokens (strong match evidence), one-sided
    // tokens (mismatch evidence), marked with direction prefixes.
    let mut inter = 0;
    for (w, (&x, &y)) in ku.iter().zip(kv).enumerate() {
        inter += (x & y).count_ones() as usize;
        for id in set_bits(w, x & y) {
            views.slots[id].0.add(&mut hashed, 1.0);
        }
        for id in set_bits(w, x ^ y) {
            views.slots[id].1.add(&mut hashed, -0.5);
        }
    }
    let denom = (su.tokens + sv.tokens).max(1) as f64;
    hashed.iter_mut().for_each(|x| *x /= denom.sqrt());

    let shared_trigrams = tu
        .iter()
        .zip(tv)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum();
    let mut out = hashed;
    out.push(jaccard(inter, su.tokens, sv.tokens));
    out.push(jaccard(shared_trigrams, su.trigrams, sv.trigrams));
    out.push(levenshtein_sim(views.first(su), views.first(sv)));
    out.push((su.count as f64 - sv.count as f64).abs() / (su.count + sv.count).max(1) as f64);
    out
}

/// The ids of the set bits of word `w` of a bitset, in increasing order.
fn set_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The whole-string Ditto featurizer: serialize both records, then
    //! tokenize, hash and trigram the two strings. Kept only to check the
    //! piece-assembled path against.

    use super::segment;
    use certa_core::hash::FxHashSet;
    use certa_core::Record;
    use certa_ml::FeatureHasher;
    use certa_text::{levenshtein_sim, trigram_sim};

    /// Serialize a record Ditto-style: `col<i> <tokens…>` per attribute.
    pub(crate) fn serialize_ditto(r: &Record) -> String {
        let mut s = String::new();
        for (i, val) in r.values().iter().enumerate() {
            s.push_str("col");
            s.push_str(&i.to_string());
            s.push(' ');
            s.push_str(&segment(val));
        }
        s.trim_end().to_string()
    }

    pub(crate) fn ditto_features(hasher: &FeatureHasher, u: &Record, v: &Record) -> Vec<f64> {
        let su = serialize_ditto(u);
        let sv = serialize_ditto(v);
        let tu: Vec<&str> = su
            .split_whitespace()
            .filter(|t| !t.starts_with("col"))
            .collect();
        let tv: Vec<&str> = sv
            .split_whitespace()
            .filter(|t| !t.starts_with("col"))
            .collect();
        let set_u: FxHashSet<&str> = tu.iter().copied().collect();
        let set_v: FxHashSet<&str> = tv.iter().copied().collect();

        let mut hashed = vec![0.0; hasher.dim()];
        let mut scratch = String::new();
        for &t in set_u.intersection(&set_v) {
            scratch.clear();
            scratch.push_str("both:");
            scratch.push_str(t);
            hasher.add(&mut hashed, &scratch, 1.0);
        }
        for &t in set_u.difference(&set_v) {
            scratch.clear();
            scratch.push_str("only:");
            scratch.push_str(t);
            hasher.add(&mut hashed, &scratch, -0.5);
        }
        for &t in set_v.difference(&set_u) {
            scratch.clear();
            scratch.push_str("only:");
            scratch.push_str(t);
            hasher.add(&mut hashed, &scratch, -0.5);
        }
        let denom = (set_u.len() + set_v.len()).max(1) as f64;
        hashed.iter_mut().for_each(|x| *x /= denom.sqrt());

        let inter = set_u.intersection(&set_v).count() as f64;
        let union = (set_u.len() + set_v.len()) as f64 - inter;
        let mut out = hashed;
        out.push(if union > 0.0 { inter / union } else { 1.0 });
        out.push(trigram_sim(&su, &sv));
        out.push(levenshtein_sim(
            tu.first().copied().unwrap_or(""),
            tv.first().copied().unwrap_or(""),
        ));
        out.push((tu.len() as f64 - tv.len() as f64).abs() / (tu.len() + tv.len()).max(1) as f64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::ditto_features;
    use super::*;
    use certa_core::hash::FxHashSet;
    use certa_core::RecordId;
    use proptest::prelude::*;

    fn hasher() -> FeatureHasher {
        FeatureHasher::new(48, 0xD177)
    }

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    fn bits(features: &[f64]) -> Vec<u64> {
        features.iter().map(|x| x.to_bits()).collect()
    }

    /// Two-record-batch features, unmemoized and through a cold and a warm
    /// memo, against the whole-string oracle, bit for bit.
    fn assert_matches_oracle(u: &Record, v: &Record) -> Result<(), TestCaseError> {
        let h = hasher();
        let want = bits(&ditto_features(&h, u, v));
        let memo = FeatureMemo::new();
        for m in [None, Some(&memo), Some(&memo)] {
            let views = views(&h, &[u, v], m);
            let got = bits(&combine(&h, &views, 0, 1));
            prop_assert_eq!(&got, &want, "{:?} vs {:?}", u.values(), v.values());
        }
        Ok(())
    }

    #[test]
    fn pieces_match_the_oracle_on_edge_cases() {
        let values = [
            "",
            " ",
            "-",
            "...",
            "a - b",
            "- ... -",
            "sony bravia",
            "Columbia col records",
            "col0 col1",
            "379.72 -12.5 0.5 1e3",
            "é 中文 \u{1F600} \u{10FFFF}",
            "a",
            "ab",
        ];
        for a in values {
            for b in values {
                assert_matches_oracle(&rec(0, &[a]), &rec(1, &[b])).unwrap();
                assert_matches_oracle(&rec(0, &[a, b, a]), &rec(1, &[b, "", a])).unwrap();
            }
        }
        // Arity 0: both serializations are empty.
        assert_matches_oracle(&rec(0, &[]), &rec(1, &[])).unwrap();
    }

    #[test]
    fn pieces_are_memoized_per_position_value_and_end() {
        let h = hasher();
        let memo = FeatureMemo::new();
        let u = rec(0, &["sony", "sony"]);
        let _ = views(&h, &[&u], Some(&memo));
        // One segment, two pieces: `sony` at 0 (inner) and at 1 (last).
        assert_eq!(memo.len(), 3);
        let _ = views(&h, &[&rec(1, &["sony", "sony", "tv"])], Some(&memo));
        // New: position 1 as an inner piece, `tv` segment and piece.
        assert_eq!(memo.len(), 6);
    }

    /// The dictionary numbers each distinct trigram and kept token of the
    /// batch once. Every id belongs to some record, so the OR of all rows
    /// has one bit per id.
    #[test]
    fn dictionary_has_one_id_per_distinct_trigram_and_token() {
        let records = [
            rec(0, &["sony bravia kdl40", "tv 40 black", "sony"]),
            rec(1, &["sony", "bravia tv led", "col7 cola"]),
            rec(2, &["", "a", "sony 40 kdl 379.72"]),
            rec(3, &["x"]),
            rec(4, &["zeiss jupiter 85mm", "quartz", "wxyz"]),
        ];
        let batch: Vec<&Record> = records.iter().collect();
        let views = views(&hasher(), &batch, None);
        let mut trigrams: FxHashSet<u64> = FxHashSet::default();
        let mut tokens: FxHashSet<&str> = FxHashSet::default();
        let serialized: Vec<String> = records.iter().map(oracle::serialize_ditto).collect();
        for s in &serialized {
            trigrams.extend(packed_trigrams(s));
            tokens.extend(s.split_whitespace().filter(|t| !t.starts_with("col")));
        }
        assert!(trigrams.len() > 64, "the trigram bitset spans two words");
        assert_eq!(views.trigram_words, trigrams.len().div_ceil(64));
        assert_eq!(views.slots.len(), tokens.len());
        let (mut all_trigrams, mut all_tokens) = (0, 0);
        for (w, _) in views.row(0).0.iter().enumerate() {
            all_trigrams += (0..batch.len())
                .fold(0, |acc, r| acc | views.row(r).0[w])
                .count_ones() as usize;
        }
        for (w, _) in views.row(0).1.iter().enumerate() {
            all_tokens += (0..batch.len())
                .fold(0, |acc, r| acc | views.row(r).1[w])
                .count_ones() as usize;
        }
        assert_eq!(all_trigrams, trigrams.len());
        assert_eq!(all_tokens, tokens.len());
    }

    /// A value alphabet mixing tokens that clean to nothing (`-`, `...`,
    /// which leave double spaces), numbers, `col`-prefixed tokens and
    /// Unicode up to U+10FFFF.
    const VALUE: &str = "(( |-|\\.\\.\\.|col|col[0-9]|Col[a-z]{1,3}|[0-9]{1,3}(\\.[0-9]{1,2})?|-?[0-9]\\.5|[a-cA-C]{1,3}|[\u{E0}-\u{FF}\u{4E00}-\u{4E03}\u{1F600}\u{10FFFE}-\u{10FFFF}]{1,2}) ?){0,6}";

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn pieces_match_the_whole_string_oracle(
            arity in 1usize..6,
            left in proptest::collection::vec(VALUE, 6),
            right in proptest::collection::vec(VALUE, 6),
            share in proptest::collection::vec(any::<bool>(), 6),
        ) {
            // Shared values make shared tokens and trigrams likely.
            let u: Vec<String> = left[..arity].to_vec();
            let v: Vec<String> = (0..arity)
                .map(|i| if share[i] { left[i].clone() } else { right[i].clone() })
                .collect();
            let (u, v) = (Record::new(RecordId(0), u), Record::new(RecordId(1), v));
            assert_matches_oracle(&u, &v)?;
            assert_matches_oracle(&v, &u)?;
            assert_matches_oracle(&u, &u)?;
        }

        #[test]
        fn pieces_match_the_oracle_on_arbitrary_unicode(
            left in proptest::collection::vec("[\0-\u{D7FF}\u{E000}-\u{10FFFF}]{0,8}", 1..4),
            right in proptest::collection::vec("[\0-\u{D7FF}\u{E000}-\u{10FFFF}]{0,8}", 1..4),
        ) {
            let arity = left.len().min(right.len());
            let u = Record::new(RecordId(0), left[..arity].to_vec());
            let v = Record::new(RecordId(1), right[..arity].to_vec());
            assert_matches_oracle(&u, &v)?;
        }
    }

    proptest! {
        // A level batch costs up to 70 copies × 2 directions × 3 memo
        // states of the whole-string oracle.
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// One batch shaped like a lattice level: the pivot, then every
        /// copy `ψ(u, w, A)` with `|A| = level`. Forced in every case, in
        /// the pivot and in `u`: a token in two attributes, and a last
        /// piece holding both trigrams of the junction after an inner
        /// piece ending in `twin`. `wide` pads the pivot with distinct
        /// two-letter tokens, so the dictionaries pass 64 and 128 ids.
        #[test]
        fn level_batches_match_the_oracle(
            arity in 1usize..=8,
            level in 0usize..8,
            u in proptest::collection::vec(VALUE, 8),
            w in proptest::collection::vec(VALUE, 8),
            pivot in proptest::collection::vec(VALUE, 8),
            wide in 0usize..3,
        ) {
            let level = level % arity + 1;
            let (mut u, mut pivot) = (u[..arity].to_vec(), pivot[..arity].to_vec());
            for values in [&mut u, &mut pivot] {
                values[0].push_str(" twin");
                values[arity - 1].push_str(" twin cola");
            }
            for i in 0..70 * wide {
                let pair = [b'd' + (i / 26) as u8, b'a' + (i % 26) as u8];
                pivot[0].push(' ');
                pivot[0].push_str(std::str::from_utf8(&pair).expect("ASCII"));
            }
            let u = Record::new(RecordId(0), u);
            let w = Record::new(RecordId(1), w[..arity].to_vec());
            let pivot = Record::new(RecordId(2), pivot);
            let copies: Vec<Record> = (0u32..1 << arity)
                .filter(|mask| mask.count_ones() as usize == level)
                .map(|mask| u.with_values_merged(&w, |i| mask & (1 << i) != 0))
                .collect();
            let batch: Vec<&Record> = std::iter::once(&pivot).chain(&copies).collect();
            let h = hasher();
            let memo = FeatureMemo::new();
            for m in [None, Some(&memo), Some(&memo)] {
                let views = views(&h, &batch, m);
                prop_assert!(views.slots.len() >= 70 * wide);
                prop_assert!(views.trigram_words > 2 * wide);
                for (j, copy) in batch.iter().enumerate().skip(1) {
                    prop_assert_eq!(
                        bits(&combine(&h, &views, j, 0)),
                        bits(&ditto_features(&h, copy, &pivot)),
                        "{:?} vs {:?}", copy.values(), pivot.values()
                    );
                    prop_assert_eq!(
                        bits(&combine(&h, &views, 0, j)),
                        bits(&ditto_features(&h, &pivot, copy))
                    );
                }
            }
        }
    }
}

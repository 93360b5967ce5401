//! Character-trigram-set similarity.
//!
//! Trigrams are packed into `u64`s (`c0 << 42 | c1 << 21 | c2`) and kept as
//! sorted, deduplicated sets. A string made of parts of three or more chars
//! has as its set the union of each part's, taken with the next part's
//! first two chars appended: every gram spanning a boundary starts in the
//! part before it.

/// Tag bit of the single gram a string shorter than three chars yields.
const SHORT: u64 = 1 << 63;
/// The low 63 bits: three 21-bit Unicode scalars.
const WINDOW: u64 = SHORT - 1;

/// The sorted, deduplicated set of `s`'s character trigrams, each packed
/// as `c0 << 42 | c1 << 21 | c2`. A non-empty string shorter than three chars yields
/// one gram: [`SHORT`] | its char count `<< 42` | its packed chars. An empty
/// string yields no gram.
pub fn packed_trigrams(s: &str) -> Vec<u64> {
    let mut grams = Vec::with_capacity(s.len());
    let mut window = 0u64;
    let mut seen = 0u64;
    for c in s.chars() {
        window = ((window << 21) | u64::from(c)) & WINDOW;
        seen += 1;
        if seen >= 3 {
            grams.push(window);
        }
    }
    if (1..3).contains(&seen) {
        grams.push(SHORT | seen << 42 | window);
    }
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// Size of the intersection of two sorted, deduplicated slices: a merge
/// whose steps are computed rather than branched on, so unpredictable
/// orderings cost no mispredictions.
fn sorted_intersection(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        inter += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    inter
}

/// Jaccard similarity of two sorted, deduplicated packed-trigram sets: 1.0
/// when both are empty, 0.0 when only one is. A string is empty exactly
/// when its set is, so `trigram_set_sim(&packed_trigrams(a),
/// &packed_trigrams(b))` is [`trigram_sim`]`(a, b)`, bit for bit.
fn trigram_set_sim(a: &[u64], b: &[u64]) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 1.0,
        (true, false) | (false, true) => return 0.0,
        (false, false) => {}
    }
    let inter = sorted_intersection(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Jaccard similarity of character trigram sets — a cheap typo-tolerant
/// similarity used by the Ditto-style serialized matcher and the
/// DeepMatcher-style attribute columns.
///
/// A string shorter than three chars counts as one gram, itself, so short
/// model codes ("b") still compare non-trivially. Each trigram is packed
/// into a `u64` (`c0 << 42 | c1 << 21 | c2`); this is injective because
/// every Unicode scalar is below 2^21. A short string's gram carries bit 63
/// and its length, so it equals neither a trigram nor a different short
/// string. Set sizes and the intersection therefore equal those of the
/// string sets, and the ratio is the same `f64`, bit for bit.
pub fn trigram_sim(a: &str, b: &str) -> f64 {
    trigram_set_sim(&packed_trigrams(a), &packed_trigrams(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::hash::FxHashSet;
    use proptest::prelude::*;

    /// Reference oracle: the set of character `n`-grams of `s` as strings
    /// (padding-free). A string shorter than `n` yields the whole string as
    /// a single gram, so short model codes ("b") still compare
    /// non-trivially.
    fn char_ngrams(s: &str, n: usize) -> FxHashSet<String> {
        assert!(n >= 1, "n-gram size must be >= 1");
        let chars: Vec<char> = s.chars().collect();
        let mut grams = FxHashSet::default();
        if chars.is_empty() {
            return grams;
        }
        if chars.len() < n {
            grams.insert(chars.iter().collect());
            return grams;
        }
        for w in chars.windows(n) {
            grams.insert(w.iter().collect());
        }
        grams
    }

    /// Reference oracle: trigram Jaccard over [`char_ngrams`] string sets.
    fn trigram_sim_oracle(a: &str, b: &str) -> f64 {
        let ga = char_ngrams(a, 3);
        let gb = char_ngrams(b, 3);
        if ga.is_empty() && gb.is_empty() {
            return 1.0;
        }
        if ga.is_empty() || gb.is_empty() {
            return 0.0;
        }
        let inter = ga.intersection(&gb).count();
        let union = ga.len() + gb.len() - inter;
        inter as f64 / union as f64
    }

    fn assert_matches_oracle(a: &str, b: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            trigram_sim(a, b).to_bits(),
            trigram_sim_oracle(a, b).to_bits(),
            "{:?} vs {:?}",
            a,
            b
        );
        prop_assert_eq!(packed_trigrams(a).len(), char_ngrams(a, 3).len());
        Ok(())
    }

    #[test]
    fn ngram_extraction() {
        let grams = char_ngrams("abcd", 2);
        assert_eq!(grams.len(), 3);
        assert!(grams.contains("ab") && grams.contains("bc") && grams.contains("cd"));
    }

    #[test]
    fn short_strings_become_single_gram() {
        let grams = char_ngrams("ab", 3);
        assert_eq!(grams.len(), 1);
        assert!(grams.contains("ab"));
        assert!(char_ngrams("", 3).is_empty());
        assert_eq!(packed_trigrams("ab").len(), 1);
        assert!(packed_trigrams("").is_empty());
    }

    #[test]
    fn trigram_sim_tolerates_typos() {
        let clean = trigram_sim("bravia theater", "bravia theater");
        let typo = trigram_sim("bravia theater", "bravia thaeter");
        let different = trigram_sim("bravia theater", "walkman player");
        assert_eq!(clean, 1.0);
        assert!(typo > 0.4 && typo < 1.0);
        assert!(different < typo);
    }

    #[test]
    fn trigram_degenerate() {
        assert_eq!(trigram_sim("", ""), 1.0);
        assert_eq!(trigram_sim("abc", ""), 0.0);
    }

    #[test]
    fn packed_grams_match_oracle_on_edge_cases() {
        let cases = [
            "",
            "a",
            "ab",
            "abc",
            "aaaa",
            "abab",
            "abcabcabc",
            "\0",
            "\0\0",
            "\0\0\0",
            "a\0",
            "\0a",
            // A short gram without its tag bit would equal these trigrams.
            "\u{1}\0a",
            "\u{2}ab",
            "é",
            "ée",
            "中文",
            "中文字",
            "\u{1F600}",
            "\u{1F600}\u{1F600}\u{1F600}\u{1F600}",
            "\u{10FFFF}",
            "\u{10FFFF}\u{10FFFF}",
            "\u{10FFFF}\u{10FFFF}\u{10FFFF}",
            "col0 columbia col1 1999 col2 rock",
            "col0 columbia col1 1999 col2 pop",
        ];
        for a in cases {
            for b in cases {
                assert_matches_oracle(a, b).unwrap();
            }
        }
        // A short string's gram can neither collide with a trigram nor with
        // a short string of another length whose packed chars agree.
        let top = packed_trigrams("\u{10FFFF}\u{10FFFF}\u{10FFFF}");
        assert!(top.iter().all(|g| g & SHORT == 0));
        assert_ne!(packed_trigrams("\0"), packed_trigrams("\0\0"));
        assert_ne!(packed_trigrams("a"), packed_trigrams("\0a"));
        assert_eq!(trigram_sim("ab", "\u{2}ab"), 0.0);
        assert_eq!(trigram_sim("a", "\u{1}\0a"), 0.0);
        assert_eq!(trigram_sim("\0", "\0\0"), 0.0);
        assert_eq!(trigram_sim("\0\0\0", "\0\0\0\0"), 1.0);
        assert_eq!(
            packed_trigrams("a\u{10FFFF}\0"),
            vec![u64::from('a') << 42 | u64::from('\u{10FFFF}') << 21]
        );
        assert_eq!(trigram_set_sim(&[], &[]), 1.0);
        assert_eq!(trigram_set_sim(&packed_trigrams("abc"), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "n-gram size")]
    fn zero_n_rejected() {
        let _ = char_ngrams("abc", 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn trigram_bounded_symmetric(a in "[a-c]{0,12}", b in "[a-c]{0,12}") {
            let s = trigram_sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - trigram_sim(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn gram_count_bound(s in "[a-z]{0,20}", n in 1usize..5) {
            let grams = char_ngrams(&s, n);
            let len = s.chars().count();
            prop_assert!(grams.len() <= len.saturating_sub(n) + 1 || grams.len() <= 1);
        }

        /// Any Unicode scalar, surrogates excluded — mostly astral and CJK.
        #[test]
        fn matches_oracle_on_arbitrary_unicode(
            a in "[\0-\u{D7FF}\u{E000}-\u{10FFFF}]{0,10}",
            b in "[\0-\u{D7FF}\u{E000}-\u{10FFFF}]{0,10}",
        ) {
            assert_matches_oracle(&a, &b)?;
            let joined = format!("{a}{b}");
            assert_matches_oracle(&a, &joined)?;
        }

        /// A small alphabet of edge chars, so repeated and shared trigrams
        /// are common: NUL, ASCII, two- and three-byte chars, astral chars
        /// and the largest scalar.
        #[test]
        fn matches_oracle_on_repeating_edge_chars(
            a in "[\0-\u{2}ab\u{E9}\u{4E2D}\u{1F600}\u{10FFFE}-\u{10FFFF}]{0,14}",
            b in "[\0-\u{2}ab\u{E9}\u{4E2D}\u{1F600}\u{10FFFE}-\u{10FFFF}]{0,14}",
        ) {
            assert_matches_oracle(&a, &b)?;
        }

        /// A string's set is the union of its parts' sets, each part taken
        /// with the next part's first two chars appended, when every part
        /// has three or more chars (no gram spans three parts, and no part
        /// yields a short gram).
        #[test]
        fn parts_assemble_to_the_whole(
            parts in proptest::collection::vec("[\0-\u{2}ab\u{E9}\u{1F600}\u{10FFFF} ]{3,8}", 1..6),
        ) {
            let mut grams: Vec<u64> = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                let mut extended = part.clone();
                if let Some(next) = parts.get(i + 1) {
                    extended.extend(next.chars().take(2));
                }
                grams.extend(packed_trigrams(&extended));
            }
            grams.sort_unstable();
            grams.dedup();
            prop_assert_eq!(grams, packed_trigrams(&parts.concat()));
        }

        /// Serialized-record shape, as the Ditto featurizer compares them.
        #[test]
        fn matches_oracle_on_serialized_records(
            a in "col0 [a-d]{1,4}( [a-d0-9]{1,4}){0,3}( col[1-7]( [a-d0-9]{1,5}){0,4}){0,7}",
            b in "col0 [a-d]{1,4}( [a-d0-9]{1,4}){0,3}( col[1-7]( [a-d0-9]{1,5}){0,4}){0,7}",
        ) {
            assert_matches_oracle(&a, &b)?;
        }
    }
}

//! Record pairs, match labels, and side designators.

use crate::record::RecordId;
use std::fmt;

/// Which source a record (or attribute) belongs to.
///
/// The paper's saliency explanations cover `A_U ∪ A_V`; a `(Side, AttrId)`
/// pair addresses one attribute in that union. Open triangles are likewise
/// `Left` (support from `U`) or `Right` (support from `V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The `U` table (the paper's left/free side for left triangles).
    Left,
    /// The `V` table.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Both sides, left first.
    pub fn both() -> [Side; 2] {
        [Side::Left, Side::Right]
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "L"),
            Side::Right => write!(f, "R"),
        }
    }
}

/// A candidate pair `(u, v) ∈ U × V`, referenced by record ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordPair {
    /// Id of the `U`-side record.
    pub left: RecordId,
    /// Id of the `V`-side record.
    pub right: RecordId,
}

impl RecordPair {
    /// Build a pair from raw ids.
    pub fn new(left: RecordId, right: RecordId) -> Self {
        RecordPair { left, right }
    }

    /// The id on the requested side.
    pub fn on(self, side: Side) -> RecordId {
        match side {
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }
}

impl fmt::Display for RecordPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.left, self.right)
    }
}

/// Ground-truth or predicted match status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchLabel {
    /// The records refer to the same entity (`E+`).
    Match,
    /// The records refer to different entities (`E-`).
    NonMatch,
}

impl MatchLabel {
    /// Threshold a matching score at 0.5, the paper's convention
    /// ("score > 0.5 corresponds to Match").
    pub fn from_score(score: f64) -> Self {
        if score > 0.5 {
            MatchLabel::Match
        } else {
            MatchLabel::NonMatch
        }
    }

    /// Build from a boolean (`true` = match).
    pub fn from_bool(is_match: bool) -> Self {
        if is_match {
            MatchLabel::Match
        } else {
            MatchLabel::NonMatch
        }
    }

    /// `true` for [`MatchLabel::Match`].
    pub fn is_match(self) -> bool {
        matches!(self, MatchLabel::Match)
    }

    /// The flipped label — the paper's `ȳ`.
    pub fn flipped(self) -> Self {
        match self {
            MatchLabel::Match => MatchLabel::NonMatch,
            MatchLabel::NonMatch => MatchLabel::Match,
        }
    }
}

impl fmt::Display for MatchLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchLabel::Match => write!(f, "Match"),
            MatchLabel::NonMatch => write!(f, "Non-Match"),
        }
    }
}

/// A pair with its ground-truth label, as found in train/test splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabeledPair {
    /// The candidate pair.
    pub pair: RecordPair,
    /// Ground-truth match status.
    pub label: MatchLabel,
}

impl LabeledPair {
    /// Build a labeled pair.
    pub fn new(left: RecordId, right: RecordId, is_match: bool) -> Self {
        LabeledPair {
            pair: RecordPair::new(left, right),
            label: MatchLabel::from_bool(is_match),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other_and_both() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
        assert_eq!(Side::both(), [Side::Left, Side::Right]);
        assert_eq!(Side::Left.to_string(), "L");
    }

    #[test]
    fn pair_on_side() {
        let p = RecordPair::new(RecordId(3), RecordId(9));
        assert_eq!(p.on(Side::Left), RecordId(3));
        assert_eq!(p.on(Side::Right), RecordId(9));
        assert_eq!(p.to_string(), "(r3, r9)");
    }

    #[test]
    fn label_threshold_follows_paper() {
        assert_eq!(MatchLabel::from_score(0.51), MatchLabel::Match);
        assert_eq!(MatchLabel::from_score(0.5), MatchLabel::NonMatch); // strictly greater
        assert_eq!(MatchLabel::from_score(0.01), MatchLabel::NonMatch);
    }

    #[test]
    fn label_flip_is_involution() {
        for l in [MatchLabel::Match, MatchLabel::NonMatch] {
            assert_eq!(l.flipped().flipped(), l);
            assert_ne!(l.flipped(), l);
        }
    }

    #[test]
    fn labeled_pair_construction() {
        let lp = LabeledPair::new(RecordId(1), RecordId(2), true);
        assert!(lp.label.is_match());
        assert_eq!(lp.pair.left, RecordId(1));
    }
}

//! A single dynamic branch instance.

use crate::{InstrCount, Pc};
use std::fmt;

/// The resolved direction of a conditional branch.
///
/// # Example
///
/// ```
/// use bwsa_trace::Direction;
///
/// assert!(Direction::Taken.is_taken());
/// assert_eq!(Direction::from_taken(false), Direction::NotTaken);
/// assert_eq!(Direction::Taken.flipped(), Direction::NotTaken);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The branch was not taken (fall-through).
    NotTaken,
    /// The branch was taken.
    Taken,
}

impl Direction {
    /// Creates a direction from a boolean taken flag.
    pub const fn from_taken(taken: bool) -> Self {
        if taken {
            Direction::Taken
        } else {
            Direction::NotTaken
        }
    }

    /// Returns `true` for [`Direction::Taken`].
    pub const fn is_taken(self) -> bool {
        matches!(self, Direction::Taken)
    }

    /// Returns the opposite direction.
    pub const fn flipped(self) -> Self {
        match self {
            Direction::Taken => Direction::NotTaken,
            Direction::NotTaken => Direction::Taken,
        }
    }

    /// Returns 1 for taken, 0 for not taken — the bit shifted into branch
    /// history registers.
    pub const fn as_bit(self) -> u64 {
        self.is_taken() as u64
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Taken => "T",
            Direction::NotTaken => "N",
        })
    }
}

impl From<bool> for Direction {
    fn from(taken: bool) -> Self {
        Direction::from_taken(taken)
    }
}

/// One dynamic instance of a conditional branch.
///
/// `time` is the number of instructions executed *before* this branch, the
/// timestamp domain of the paper's §4.1 interleaving analysis. Within a
/// trace, records appear in non-decreasing `time` order.
///
/// # Example
///
/// ```
/// use bwsa_trace::{BranchRecord, Direction, InstrCount, Pc};
///
/// let r = BranchRecord::new(Pc::new(0x400), Direction::Taken, InstrCount::new(5));
/// assert!(r.direction.is_taken());
/// assert_eq!(r.time.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the static branch instruction.
    pub pc: Pc,
    /// Resolved direction of this dynamic instance.
    pub direction: Direction,
    /// Instructions executed prior to this dynamic instance.
    pub time: InstrCount,
}

impl BranchRecord {
    /// Creates a record.
    pub const fn new(pc: Pc, direction: Direction, time: InstrCount) -> Self {
        BranchRecord {
            pc,
            direction,
            time,
        }
    }

    /// Convenience constructor from raw integers.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_trace::BranchRecord;
    ///
    /// let r = BranchRecord::from_raw(0x400, true, 12);
    /// assert_eq!(r.pc.addr(), 0x400);
    /// assert!(r.direction.is_taken());
    /// ```
    pub const fn from_raw(pc: u64, taken: bool, time: u64) -> Self {
        BranchRecord {
            pc: Pc::new(pc),
            direction: Direction::from_taken(taken),
            time: InstrCount::new(time),
        }
    }

    /// Returns `true` if this instance was taken.
    pub const fn is_taken(&self) -> bool {
        self.direction.is_taken()
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @{}", self.pc, self.direction, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_roundtrip() {
        for taken in [true, false] {
            let d = Direction::from_taken(taken);
            assert_eq!(d.is_taken(), taken);
            assert_eq!(d.flipped().is_taken(), !taken);
            assert_eq!(d.as_bit(), taken as u64);
            assert_eq!(Direction::from(taken), d);
        }
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::Taken.to_string(), "T");
        assert_eq!(Direction::NotTaken.to_string(), "N");
    }

    #[test]
    fn record_constructors_agree() {
        let a = BranchRecord::new(Pc::new(8), Direction::NotTaken, InstrCount::new(3));
        let b = BranchRecord::from_raw(8, false, 3);
        assert_eq!(a, b);
        assert!(!a.is_taken());
    }

    #[test]
    fn record_display_is_nonempty() {
        let r = BranchRecord::from_raw(0x10, true, 7);
        assert_eq!(r.to_string(), "0x10 T @7");
    }
}

//! Newtype identifiers used throughout the workspace.

use std::fmt;

/// Dense identifier of a *static* conditional branch instruction.
///
/// Ids are assigned by interning program counters in first-appearance
/// order (see [`crate::BranchTable`]), so they are contiguous from zero
/// and usable as vector indices by every downstream analysis.
///
/// # Example
///
/// ```
/// use bwsa_trace::BranchId;
///
/// let id = BranchId::new(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(format!("{id}"), "b7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(u32);

impl BranchId {
    /// Creates a branch id from a dense index.
    pub const fn new(index: u32) -> Self {
        BranchId(index)
    }

    /// Returns the dense index, suitable for direct vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u32> for BranchId {
    fn from(v: u32) -> Self {
        BranchId(v)
    }
}

impl From<BranchId> for u32 {
    fn from(v: BranchId) -> Self {
        v.0
    }
}

/// A program counter: the address of a static branch instruction.
///
/// In the synthetic workloads produced by `bwsa-workload` every static
/// conditional branch has a unique, 4-byte-aligned address, mirroring the
/// property the paper relies on when it indexes the BHT with
/// `(pc >> 2) mod N`.
///
/// # Example
///
/// ```
/// use bwsa_trace::Pc;
///
/// let pc = Pc::new(0x0040_0010);
/// assert_eq!(pc.word_index(), 0x0010_0004);
/// assert_eq!(format!("{pc}"), "0x400010");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter from a raw address.
    pub const fn new(addr: u64) -> Self {
        Pc(addr)
    }

    /// Returns the raw address.
    pub const fn addr(self) -> u64 {
        self.0
    }

    /// Returns the address shifted right by two — the "instruction word"
    /// index conventionally used for branch-table hashing on fixed-width
    /// 4-byte ISAs such as the paper's SimpleScalar PISA.
    pub const fn word_index(self) -> u64 {
        self.0 >> 2
    }

    /// Conventional PC-modulo table index: `(pc >> 2) mod table_size`.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` is zero.
    pub fn table_index(self, table_size: usize) -> usize {
        assert!(table_size > 0, "table_size must be non-zero");
        (self.word_index() % table_size as u64) as usize
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Pc {
    fn from(v: u64) -> Self {
        Pc(v)
    }
}

impl From<Pc> for u64 {
    fn from(v: Pc) -> Self {
        v.0
    }
}

/// A count of dynamic instructions executed, used as the timestamp domain
/// of the paper's interleaving analysis (§4.1: "we use a count of the
/// number of instructions executed prior to that dynamic branch instance").
///
/// # Example
///
/// ```
/// use bwsa_trace::InstrCount;
///
/// let t = InstrCount::new(20);
/// assert!(t > InstrCount::new(5));
/// assert_eq!(t.get(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstrCount(u64);

impl InstrCount {
    /// The zero timestamp.
    pub const ZERO: InstrCount = InstrCount(0);

    /// Creates an instruction count.
    pub const fn new(count: u64) -> Self {
        InstrCount(count)
    }

    /// Returns the raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the count advanced by `n` instructions.
    pub const fn advance(self, n: u64) -> Self {
        InstrCount(self.0 + n)
    }

    /// Saturating difference `self - earlier`.
    pub const fn since(self, earlier: InstrCount) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for InstrCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u64> for InstrCount {
    fn from(v: u64) -> Self {
        InstrCount(v)
    }
}

impl From<InstrCount> for u64 {
    fn from(v: InstrCount) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_id_roundtrip() {
        let id = BranchId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(BranchId::from(42u32), id);
    }

    #[test]
    fn branch_id_ordering_follows_index() {
        assert!(BranchId::new(1) < BranchId::new(2));
    }

    #[test]
    fn pc_word_index_strips_byte_offset() {
        assert_eq!(Pc::new(0x1000).word_index(), 0x400);
        assert_eq!(Pc::new(0x1004).word_index(), 0x401);
    }

    #[test]
    fn pc_table_index_is_modulo() {
        let pc = Pc::new(0x1004);
        assert_eq!(pc.table_index(1024), 0x401 % 1024);
        assert_eq!(pc.table_index(1), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn pc_table_index_rejects_zero_size() {
        Pc::new(0x1000).table_index(0);
    }

    #[test]
    fn instr_count_advance_and_since() {
        let t = InstrCount::ZERO.advance(10).advance(5);
        assert_eq!(t.get(), 15);
        assert_eq!(t.since(InstrCount::new(5)), 10);
        assert_eq!(InstrCount::new(5).since(t), 0, "since saturates");
    }

    #[test]
    fn display_formats() {
        assert_eq!(BranchId::new(3).to_string(), "b3");
        assert_eq!(Pc::new(255).to_string(), "0xff");
        assert_eq!(InstrCount::new(9).to_string(), "9");
    }
}

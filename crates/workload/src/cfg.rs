//! Executable control-flow-graph program model.
//!
//! A [`Program`] is a set of basic [`Block`]s grouped into [`Function`]s.
//! Each block executes `instr_count` straight-line instructions and ends
//! in a [`Terminator`]; conditional branches reference a [`BranchDecl`]
//! carrying the branch's unique program counter and its
//! [`crate::behavior::BranchBehavior`].
//!
//! The model is deliberately minimal — there is no data state; branch
//! directions come from behavior models — but its *control* semantics are
//! real: calls push a return continuation, loops actually iterate, and the
//! interpreter counts every instruction so trace timestamps match the
//! paper's definition.

use crate::behavior::BranchBehavior;
use crate::WorkloadError;
use bwsa_trace::Pc;
use std::collections::HashSet;
use std::fmt;

/// Index of a basic block within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Index of a static branch declaration within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchRef(pub u32);

/// Declaration of one static conditional branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchDecl {
    /// Unique address of the branch instruction.
    pub pc: Pc,
    /// Direction model.
    pub behavior: BranchBehavior,
}

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch: `decl` decides between the two successors.
    Branch {
        /// The static branch resolving this terminator.
        decl: BranchRef,
        /// Successor when taken.
        taken: BlockId,
        /// Successor when not taken (fall-through).
        not_taken: BlockId,
    },
    /// Call `callee`; on return, continue at `then`.
    Call {
        /// Called function.
        callee: FuncId,
        /// Continuation block in the caller.
        then: BlockId,
    },
    /// Return to the caller's continuation (or end the program from main).
    Return,
    /// End the program immediately.
    Exit,
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Number of non-control instructions executed before the terminator.
    pub instr_count: u32,
    /// The block's exit.
    pub terminator: Terminator,
}

/// A function: a named entry block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Human-readable name (for diagnostics only).
    pub name: String,
    /// Entry block.
    pub entry: BlockId,
}

/// A complete executable program.
///
/// Construct with [`Program::new`] + the `add_*` methods (or the
/// higher-level [`crate::builder`]), then [`Program::validate`] before
/// interpretation.
///
/// # Example
///
/// ```
/// use bwsa_workload::behavior::BranchBehavior;
/// use bwsa_workload::cfg::{Program, Terminator};
///
/// // while (i++ < 3) {}  — a single loop block branching back to itself.
/// let mut p = Program::new();
/// let b = p.add_branch(0x400, BranchBehavior::LoopExit { trips: 3 });
/// let exit = p.add_block(0, Terminator::Exit);
/// let head = p.add_block(4, Terminator::Branch { decl: b, taken: exit, not_taken: exit });
/// // Fix up: taken loops back to the head.
/// p.set_terminator(head, Terminator::Branch { decl: b, taken: head, not_taken: exit });
/// let main = p.add_function("main", head);
/// p.set_main(main);
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    blocks: Vec<Block>,
    branches: Vec<BranchDecl>,
    functions: Vec<Function>,
    main: Option<FuncId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a static branch with a unique pc and returns its handle.
    pub fn add_branch(&mut self, pc: u64, behavior: BranchBehavior) -> BranchRef {
        let r = BranchRef(self.branches.len() as u32);
        self.branches.push(BranchDecl {
            pc: Pc::new(pc),
            behavior,
        });
        r
    }

    /// Adds a basic block and returns its id.
    pub fn add_block(&mut self, instr_count: u32, terminator: Terminator) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            instr_count,
            terminator,
        });
        id
    }

    /// Replaces a block's terminator (for wiring up loops).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn set_terminator(&mut self, block: BlockId, terminator: Terminator) {
        self.blocks[block.0 as usize].terminator = terminator;
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, name: impl Into<String>, entry: BlockId) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(Function {
            name: name.into(),
            entry,
        });
        id
    }

    /// Sets the program entry function.
    pub fn set_main(&mut self, main: FuncId) {
        self.main = Some(main);
    }

    /// The program entry function, if set.
    pub fn main(&self) -> Option<FuncId> {
        self.main
    }

    /// The blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The static branch declarations, indexed by [`BranchRef`].
    pub fn branches(&self) -> &[BranchDecl] {
        &self.branches
    }

    /// The functions, indexed by [`FuncId`].
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Looks up a branch declaration.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn branch(&self, r: BranchRef) -> &BranchDecl {
        &self.branches[r.0 as usize]
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Number of static conditional branches declared.
    pub fn static_branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Checks structural integrity: every reference in range, a main
    /// function set, unique branch pcs, and valid behavior parameters.
    ///
    /// # Errors
    ///
    /// Returns the first [`WorkloadError`] found.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let check_block = |holder: &str, id: BlockId| {
            if id.0 as usize >= self.blocks.len() {
                Err(WorkloadError::DanglingReference {
                    holder: holder.to_owned(),
                    reference: format!("block {}", id.0),
                })
            } else {
                Ok(())
            }
        };
        let main = self.main.ok_or_else(|| WorkloadError::DanglingReference {
            holder: "program".into(),
            reference: "main function (unset)".into(),
        })?;
        if main.0 as usize >= self.functions.len() {
            return Err(WorkloadError::DanglingReference {
                holder: "program".into(),
                reference: format!("main function {}", main.0),
            });
        }
        for (i, f) in self.functions.iter().enumerate() {
            check_block(&format!("function {} ({})", i, f.name), f.entry)?;
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let holder = format!("block {i}");
            match b.terminator {
                Terminator::Jump(t) => check_block(&holder, t)?,
                Terminator::Branch {
                    decl,
                    taken,
                    not_taken,
                } => {
                    if decl.0 as usize >= self.branches.len() {
                        return Err(WorkloadError::DanglingReference {
                            holder,
                            reference: format!("branch decl {}", decl.0),
                        });
                    }
                    check_block(&holder, taken)?;
                    check_block(&holder, not_taken)?;
                }
                Terminator::Call { callee, then } => {
                    if callee.0 as usize >= self.functions.len() {
                        return Err(WorkloadError::DanglingReference {
                            holder,
                            reference: format!("function {}", callee.0),
                        });
                    }
                    check_block(&holder, then)?;
                }
                Terminator::Return | Terminator::Exit => {}
            }
        }
        let mut pcs = HashSet::new();
        for decl in &self.branches {
            if !pcs.insert(decl.pc) {
                return Err(WorkloadError::DuplicatePc { pc: decl.pc.addr() });
            }
            decl.behavior.validate()?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} functions, {} blocks, {} static branches",
            self.functions.len(),
            self.blocks.len(),
            self.branches.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_valid() -> Program {
        let mut p = Program::new();
        let exit = p.add_block(1, Terminator::Exit);
        let main = p.add_function("main", exit);
        p.set_main(main);
        p
    }

    #[test]
    fn minimal_program_validates() {
        assert!(minimal_valid().validate().is_ok());
    }

    #[test]
    fn missing_main_fails() {
        let mut p = Program::new();
        p.add_block(1, Terminator::Exit);
        assert!(matches!(
            p.validate(),
            Err(WorkloadError::DanglingReference { .. })
        ));
    }

    #[test]
    fn dangling_jump_fails() {
        let mut p = minimal_valid();
        p.add_block(1, Terminator::Jump(BlockId(99)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn dangling_branch_decl_fails() {
        let mut p = minimal_valid();
        let b0 = BlockId(0);
        p.add_block(
            1,
            Terminator::Branch {
                decl: BranchRef(5),
                taken: b0,
                not_taken: b0,
            },
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn dangling_callee_fails() {
        let mut p = minimal_valid();
        p.add_block(
            1,
            Terminator::Call {
                callee: FuncId(9),
                then: BlockId(0),
            },
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn duplicate_pc_fails() {
        let mut p = minimal_valid();
        p.add_branch(0x100, BranchBehavior::LoopExit { trips: 2 });
        p.add_branch(0x100, BranchBehavior::LoopExit { trips: 3 });
        assert_eq!(p.validate(), Err(WorkloadError::DuplicatePc { pc: 0x100 }));
    }

    #[test]
    fn invalid_behavior_fails_validation() {
        let mut p = minimal_valid();
        p.add_branch(0x100, BranchBehavior::LoopExit { trips: 0 });
        assert!(matches!(
            p.validate(),
            Err(WorkloadError::InvalidBehavior { .. })
        ));
    }

    #[test]
    fn set_terminator_rewires() {
        let mut p = minimal_valid();
        let b = p.add_block(2, Terminator::Exit);
        p.set_terminator(b, Terminator::Jump(BlockId(0)));
        assert_eq!(p.block(b).terminator, Terminator::Jump(BlockId(0)));
    }

    #[test]
    fn display_counts_entities() {
        let p = minimal_valid();
        assert_eq!(
            p.to_string(),
            "program: 1 functions, 1 blocks, 0 static branches"
        );
    }
}

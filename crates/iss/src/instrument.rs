//! Per-run instrumentation: the data the paper's method extracts from the
//! ISS.
//!
//! The headline metric is **instruction diversity** — the number of unique
//! opcodes executed ([`RunStats::diversity`]) — plus its per-functional-unit
//! refinement `D_m` ([`RunStats::unit_diversity`]).

use sparc_isa::{Instr, Opcode, Unit};
use std::sync::OnceLock;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when there were no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Execution counters for one run.
///
/// The per-opcode counts live in a flat array indexed by the opcode's
/// ordinal, so recording an instruction is a few increments. Everything
/// else the paper's method reads — the opcode histogram, per-unit access
/// counts, diversity `D` and per-unit diversity `D_m` — is derived from
/// that array on demand; the derivation is exact because
/// [`Opcode::units`] is a pure function of the opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Executed (non-annulled) instructions.
    pub instructions: u64,
    /// Annulled delay slots (fetched, not executed).
    pub annulled: u64,
    /// Traps taken.
    pub traps: u64,
    /// Executed instructions that access memory (the paper's "Memory" row
    /// of Table 1).
    pub memory_instructions: u64,
    /// Executed instructions processed by the integer unit — every
    /// non-annulled instruction (the paper's "Integer Unit" row).
    pub iu_instructions: u64,
    /// Executions per opcode, indexed by `op as usize` (the opcode's
    /// position in [`Opcode::ALL`]).
    opcode_counts: [u64; Opcode::ALL.len()],
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            instructions: 0,
            annulled: 0,
            traps: 0,
            memory_instructions: 0,
            iu_instructions: 0,
            opcode_counts: [0; Opcode::ALL.len()],
        }
    }
}

/// [`Opcode::ALL`] sorted by mnemonic, built once.
fn by_mnemonic() -> &'static [Opcode] {
    static ORDER: OnceLock<Vec<Opcode>> = OnceLock::new();
    ORDER.get_or_init(|| {
        let mut order = Opcode::ALL.to_vec();
        order.sort_unstable_by_key(|op| op.mnemonic());
        order
    })
}

impl RunStats {
    /// Record one executed instruction.
    pub fn record(&mut self, instr: &Instr) {
        self.instructions += 1;
        self.iu_instructions += 1;
        if instr.op.accesses_memory() {
            self.memory_instructions += 1;
        }
        self.opcode_counts[instr.op as usize] += 1;
    }

    fn count(&self, op: Opcode) -> u64 {
        self.opcode_counts[op as usize]
    }

    /// How many times each executed opcode was executed, in [`Opcode`]
    /// order; opcodes never executed are absent.
    pub fn opcode_histogram(&self) -> Vec<(Opcode, u64)> {
        self.executed_opcodes()
            .map(|op| (op, self.count(op)))
            .collect()
    }

    /// How many instruction executions touched each functional unit,
    /// indexed by [`Unit::index`].
    pub fn unit_accesses(&self) -> [u64; Unit::ALL.len()] {
        let mut accesses = [0; Unit::ALL.len()];
        for op in self.executed_opcodes() {
            for unit in op.units().iter() {
                accesses[unit.index()] += self.count(op);
            }
        }
        accesses
    }

    /// Instruction diversity: the number of unique opcodes executed.
    ///
    /// This is the paper's core metric — under its `Pf = f(Is)` hypothesis
    /// for permanent faults, diversity (not instruction count, order or
    /// input data) determines the fault-to-failure probability.
    pub fn diversity(&self) -> usize {
        self.opcode_counts.iter().filter(|&&n| n > 0).count()
    }

    /// Per-unit diversity `D_m`: unique opcodes whose unit-usage set
    /// contains `unit`.
    pub fn unit_diversity(&self, unit: Unit) -> usize {
        self.executed_opcodes()
            .filter(|op| op.units().contains(unit))
            .count()
    }

    /// The set of opcodes executed, in a stable ([`Opcode`]) order.
    pub fn executed_opcodes(&self) -> impl Iterator<Item = Opcode> + '_ {
        Opcode::ALL.iter().copied().filter(|&op| self.count(op) > 0)
    }

    /// The opcode histogram keyed by mnemonic, sorted by mnemonic — the
    /// wire form a predictor service accepts: an ISS run's diversity
    /// travels as names, not as this workspace's enum ordinals.
    pub fn named_histogram(&self) -> Vec<(&'static str, u64)> {
        by_mnemonic()
            .iter()
            .filter(|&&op| self.count(op) > 0)
            .map(|&op| (op.mnemonic(), self.count(op)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_isa::{Operand2, Reg};

    fn alu(op: Opcode) -> Instr {
        Instr::alu(op, Reg::g(1), Reg::g(2), Operand2::imm(1))
    }

    #[test]
    fn diversity_counts_unique_opcodes() {
        let mut stats = RunStats::default();
        for _ in 0..10 {
            stats.record(&alu(Opcode::Add));
        }
        stats.record(&alu(Opcode::Sub));
        stats.record(&Instr::mem(
            Opcode::Ld,
            Reg::g(1),
            Reg::g(2),
            Operand2::imm(0),
        ));
        assert_eq!(stats.instructions, 12);
        assert_eq!(stats.diversity(), 3);
        assert_eq!(stats.memory_instructions, 1);
        assert_eq!(stats.iu_instructions, 12);
    }

    #[test]
    fn unit_diversity_narrows_by_unit() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Sub));
        stats.record(&alu(Opcode::And));
        stats.record(&alu(Opcode::Sll));
        // Adder sees add/sub; logic sees and; shift sees sll; fetch sees all.
        assert_eq!(stats.unit_diversity(Unit::AluAdd), 2);
        assert_eq!(stats.unit_diversity(Unit::AluLogic), 1);
        assert_eq!(stats.unit_diversity(Unit::Shift), 1);
        assert_eq!(stats.unit_diversity(Unit::Fetch), 4);
        assert_eq!(stats.unit_diversity(Unit::MulDiv), 0);
    }

    #[test]
    fn named_histogram_is_sorted_by_mnemonic() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Sub));
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Add));
        let named = stats.named_histogram();
        assert_eq!(named, vec![("add", 2), ("sub", 1)]);
        assert_eq!(named.len(), stats.diversity());
    }

    #[test]
    fn unit_accesses_accumulate() {
        let mut stats = RunStats::default();
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Add));
        stats.record(&alu(Opcode::Sll));
        let accesses = stats.unit_accesses();
        assert_eq!(accesses[Unit::AluAdd.index()], 2);
        assert_eq!(accesses[Unit::Shift.index()], 1);
        assert_eq!(accesses[Unit::Fetch.index()], 3);
        assert_eq!(accesses[Unit::MulDiv.index()], 0);
    }

    #[test]
    fn opcode_ordinals_are_positions_in_all() {
        for (i, &op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn derived_views_agree_with_the_counts() {
        let mut stats = RunStats::default();
        for op in [Opcode::Sub, Opcode::Add, Opcode::Sub, Opcode::Xor] {
            stats.record(&alu(op));
        }
        assert_eq!(
            stats.opcode_histogram(),
            vec![(Opcode::Add, 1), (Opcode::Sub, 2), (Opcode::Xor, 1)]
        );
        assert_eq!(stats.count(Opcode::Sub), 2);
        assert_eq!(stats.count(Opcode::Or), 0);
        assert_eq!(
            stats.executed_opcodes().collect::<Vec<_>>(),
            vec![Opcode::Add, Opcode::Sub, Opcode::Xor]
        );
        assert_eq!(RunStats::default().opcode_histogram(), vec![]);
        assert_eq!(RunStats::default().diversity(), 0);
    }

    #[test]
    fn cache_stats_ratios() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}

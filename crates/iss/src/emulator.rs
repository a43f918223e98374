//! The emulator driver: fetch/decode/execute loop, run outcomes, halt
//! handling.

use crate::bus::BusTrace;
use crate::exec::DecodeMemo;
use crate::inject::ArchFault;
use crate::instrument::RunStats;
use crate::memory::Memory;
use crate::state::CpuState;
use crate::timer::Timer;
use crate::timing::{CacheSpec, Timing};
use sparc_asm::Program;
use sparc_isa::TrapType;

/// Configuration of the simulated platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssConfig {
    /// RAM window base address.
    pub ram_base: u32,
    /// RAM window size in bytes.
    pub ram_size: u32,
    /// Record off-core reads in the bus trace (writes are always recorded).
    pub trace_reads: bool,
    /// Instruction-cache geometry for the timing model.
    pub icache: CacheSpec,
    /// Data-cache geometry for the timing model.
    pub dcache: CacheSpec,
    /// Enable the memory-mapped countdown timer (see [`crate::Timer`]);
    /// off by default so purely computational workloads stay
    /// interrupt-free.
    pub timer: bool,
    /// Mirror the RTL model's per-line cache parity in the timing model's
    /// tag stores (see [`crate::CacheModel::with_parity`]); timing-neutral
    /// and off by default.
    pub cmem_parity: bool,
}

impl Default for IssConfig {
    fn default() -> Self {
        IssConfig {
            ram_base: 0x4000_0000,
            ram_size: 4 << 20,
            trace_reads: false,
            icache: CacheSpec::leon3_icache(),
            dcache: CacheSpec::leon3_dcache(),
            timer: false,
            cmem_parity: false,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `ta 0` (the suite's halt convention); `code` is
    /// `%o0` at that point.
    Halted {
        /// Exit code (contents of `%o0`).
        code: u32,
    },
    /// The instruction budget was exhausted — in fault campaigns this is
    /// classified as a *hang*.
    InstructionLimit,
    /// A trap occurred while traps were disabled (SPARC error mode); the
    /// core stops, as real Leon3 does.
    ErrorMode {
        /// The trap that hit error mode.
        trap: TrapType,
    },
}

/// Terminal state of the emulator (sticky version of [`RunOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// See [`RunOutcome::Halted`].
    Halted(u32),
    /// See [`RunOutcome::ErrorMode`].
    ErrorMode(TrapType),
}

/// What a single [`Iss::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction was executed.
    Executed,
    /// The instruction in the delay slot was annulled.
    Annulled,
    /// A trap was taken (vectoring to the trap table).
    Trapped(TrapType),
    /// The core is stopped (halted or in error mode).
    Stopped,
}

/// The instruction set simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Iss {
    pub(crate) state: CpuState,
    pub(crate) mem: Memory,
    pub(crate) trace: BusTrace,
    pub(crate) stats: RunStats,
    pub(crate) timing: Timing,
    pub(crate) arch_faults: Vec<ArchFault>,
    pub(crate) exit: Option<Exit>,
    pub(crate) timer: Timer,
    pub(crate) memo: DecodeMemo,
    config: IssConfig,
}

impl Iss {
    /// A fresh simulator with nothing loaded.
    pub fn new(config: IssConfig) -> Iss {
        Iss {
            state: CpuState::at_entry(config.ram_base),
            mem: Memory::new(config.ram_base, config.ram_size),
            trace: if config.trace_reads {
                BusTrace::with_reads()
            } else {
                BusTrace::new()
            },
            stats: RunStats::default(),
            timing: Timing::with_parity(config.icache, config.dcache, config.cmem_parity),
            arch_faults: Vec::new(),
            exit: None,
            timer: Timer::new(),
            memo: DecodeMemo::new(),
            config,
        }
    }

    /// Load a program image and point the PC at its entry.
    pub fn load(&mut self, program: &Program) {
        self.mem.load(program);
        self.state = CpuState::at_entry(program.entry);
    }

    /// Install a permanent architectural-state fault (ISS-level injection).
    pub fn inject(&mut self, fault: ArchFault) {
        self.arch_faults.push(fault);
    }

    /// Run until halt, error mode or the instruction budget is exhausted.
    pub fn run(&mut self, max_instructions: u64) -> RunOutcome {
        let budget_end = self.stats.instructions + max_instructions;
        loop {
            match self.exit {
                Some(Exit::Halted(code)) => return RunOutcome::Halted { code },
                Some(Exit::ErrorMode(trap)) => return RunOutcome::ErrorMode { trap },
                None => {}
            }
            if self.stats.instructions >= budget_end {
                return RunOutcome::InstructionLimit;
            }
            self.step();
        }
    }

    /// The architectural state.
    pub fn state(&self) -> &CpuState {
        &self.state
    }

    /// Mutable architectural state (for test harnesses and fault studies).
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.state
    }

    /// The memory image.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory (to pre-load inputs).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The off-core bus trace recorded so far.
    pub fn bus_trace(&self) -> &BusTrace {
        &self.trace
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Parity mismatches observed by the cache parity mirror (always zero
    /// unless [`IssConfig::cmem_parity`] is on and the mirror is
    /// corrupted; see [`crate::CacheModel::parity_mismatches`]).
    pub fn parity_mismatches(&self) -> u64 {
        self.timing.parity_mismatches()
    }

    /// The timing model (cycle count, cache statistics).
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.timing.cycles()
    }

    /// The platform configuration.
    pub fn config(&self) -> &IssConfig {
        &self.config
    }

    /// Whether the timer peripheral is enabled.
    pub(crate) fn timer_enabled(&self) -> bool {
        self.config.timer
    }

    /// The timer peripheral's state (for tests and debuggers).
    pub fn timer(&self) -> &Timer {
        &self.timer
    }

    /// Terminal state, if the core has stopped.
    pub fn exit(&self) -> Option<Exit> {
        self.exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_asm::assemble;

    fn run(src: &str) -> (Iss, RunOutcome) {
        let program = assemble(src).expect("assembles");
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        let outcome = iss.run(100_000);
        (iss, outcome)
    }

    #[test]
    fn halt_returns_o0() {
        let (_, outcome) = run("_start: mov 42, %o0\n halt\n");
        assert_eq!(outcome, RunOutcome::Halted { code: 42 });
    }

    #[test]
    fn instruction_limit_reported() {
        let program = assemble("_start: ba _start\n nop\n").unwrap();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        assert_eq!(iss.run(100), RunOutcome::InstructionLimit);
        // Budget is consumable in chunks.
        assert_eq!(iss.run(100), RunOutcome::InstructionLimit);
        assert!(iss.stats().instructions >= 200);
    }

    #[test]
    fn error_mode_on_illegal_without_handlers() {
        // No trap table installed; tbr = 0 points outside RAM, so the trap
        // vectoring itself faults and the second trap hits ET=0 error mode.
        let (_, outcome) = run("_start: unimp\n halt\n");
        assert!(matches!(outcome, RunOutcome::ErrorMode { .. }));
    }

    #[test]
    fn run_after_halt_is_sticky() {
        let (mut iss, outcome) = run("_start: mov 7, %o0\n halt\n");
        assert_eq!(outcome, RunOutcome::Halted { code: 7 });
        assert_eq!(iss.run(10), RunOutcome::Halted { code: 7 });
    }
}

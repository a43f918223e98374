//! EEMBC-Autobench-like automotive workloads and the paper's two synthetic
//! benchmarks, as SPARC V8 assembly program generators.
//!
//! The reproduced paper drives its fault-injection campaigns with the
//! (proprietary) EEMBC Autobench suite plus two synthetic benchmarks. This
//! crate substitutes from-scratch implementations of the same documented
//! kernels:
//!
//! | benchmark  | kind       | kernel |
//! |------------|------------|--------|
//! | `a2time`   | automotive | angle-to-time conversion (tooth timing)    |
//! | `ttsprk`   | automotive | tooth-to-spark advance computation         |
//! | `rspeed`   | automotive | road-speed calculation with filtering      |
//! | `tblook`   | automotive | table lookup and interpolation             |
//! | `canrdr`   | automotive | CAN remote-data-request frame handling     |
//! | `puwmod`   | automotive | pulse-width modulation duty computation    |
//! | `basefp`   | automotive | basic fixed-point arithmetic               |
//! | `bitmnp`   | automotive | bit manipulation                           |
//! | `membench` | synthetic  | memory-intensive walker (low diversity)    |
//! | `intbench` | synthetic  | integer ALU chain (low diversity)          |
//!
//! Each automotive kernel ships **three input datasets** (for the paper's
//! input-variability study, Fig. 3), an **iteration count** knob (Fig. 4),
//! and an **init-phase excerpt** (the paper's "benchmark excerpts": the
//! initialization phase where input data is read and placed in memory,
//! with a deliberately small, fixed set of instruction types).
//!
//! # Example
//!
//! ```
//! use workloads::{Benchmark, Params};
//! use sparc_iss::{Iss, IssConfig, RunOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Benchmark::Rspeed.program(&Params::default());
//! let mut iss = Iss::new(IssConfig::default());
//! iss.load(&program);
//! assert!(matches!(iss.run(10_000_000), RunOutcome::Halted { .. }));
//! println!("diversity = {}", iss.stats().diversity());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
pub mod irq;
mod kernels;
pub mod random;
mod runtime;

use sparc_asm::{assemble, Program};
use sparc_iss::{Iss, IssConfig, RunOutcome, RunStats};
use std::fmt;

/// Workload category (the paper's Table 1 column groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// EEMBC-Autobench-like automotive kernel.
    Automotive,
    /// Synthetic benchmark designed for extreme (low) diversity.
    Synthetic,
}

/// How many input datasets every benchmark ships (the paper's Fig. 3
/// input-variability study uses three per automotive kernel).
pub const DATASETS: usize = 3;

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of outer iterations (the paper uses 2/4/10 in Fig. 4).
    pub iterations: u32,
    /// Input dataset index, `0..3` (Fig. 3 input-variability study).
    pub dataset: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            iterations: 2,
            dataset: 0,
        }
    }
}

impl Params {
    /// Params with a given iteration count (dataset 0).
    pub fn with_iterations(iterations: u32) -> Params {
        Params {
            iterations,
            dataset: 0,
        }
    }

    /// Params with a given dataset (2 iterations).
    pub fn with_dataset(dataset: usize) -> Params {
        assert!(dataset < DATASETS, "datasets are 0..3");
        Params {
            iterations: 2,
            dataset,
        }
    }
}

/// The benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    A2time,
    Ttsprk,
    Rspeed,
    Tblook,
    Canrdr,
    Puwmod,
    Basefp,
    Bitmnp,
    Membench,
    Intbench,
}

impl Benchmark {
    /// All benchmarks.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::A2time,
        Benchmark::Ttsprk,
        Benchmark::Rspeed,
        Benchmark::Tblook,
        Benchmark::Canrdr,
        Benchmark::Puwmod,
        Benchmark::Basefp,
        Benchmark::Bitmnp,
        Benchmark::Membench,
        Benchmark::Intbench,
    ];

    /// The four automotive benchmarks of the paper's Table 1 / Figs 5-6.
    pub const TABLE1_AUTOMOTIVE: [Benchmark; 4] = [
        Benchmark::Puwmod,
        Benchmark::Canrdr,
        Benchmark::Ttsprk,
        Benchmark::Rspeed,
    ];

    /// The two synthetic benchmarks of Table 1 / Figs 5-6.
    pub const TABLE1_SYNTHETIC: [Benchmark; 2] = [Benchmark::Membench, Benchmark::Intbench];

    /// Excerpt subset A of Fig. 3(a) — init phases with 8 instruction
    /// types.
    pub const EXCERPT_SUBSET_A: [Benchmark; 3] =
        [Benchmark::A2time, Benchmark::Ttsprk, Benchmark::Bitmnp];

    /// Excerpt subset B of Fig. 3(b) — init phases with 11 instruction
    /// types.
    pub const EXCERPT_SUBSET_B: [Benchmark; 3] =
        [Benchmark::Rspeed, Benchmark::Tblook, Benchmark::Basefp];

    /// The benchmark's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::A2time => "a2time",
            Benchmark::Ttsprk => "ttsprk",
            Benchmark::Rspeed => "rspeed",
            Benchmark::Tblook => "tblook",
            Benchmark::Canrdr => "canrdr",
            Benchmark::Puwmod => "puwmod",
            Benchmark::Basefp => "basefp",
            Benchmark::Bitmnp => "bitmnp",
            Benchmark::Membench => "membench",
            Benchmark::Intbench => "intbench",
        }
    }

    /// Look a benchmark up by name.
    pub fn by_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The benchmark's category.
    pub fn kind(self) -> Kind {
        match self {
            Benchmark::Membench | Benchmark::Intbench => Kind::Synthetic,
            _ => Kind::Automotive,
        }
    }

    /// Generate the full program (runtime + kernel + data).
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to assemble — that is a bug
    /// in the generator, not a runtime condition.
    pub fn program(self, params: &Params) -> Program {
        let source = self.source(params);
        match assemble(&source) {
            Ok(program) => program,
            Err(e) => panic!("workload {} failed to assemble: {e}", self.name()),
        }
    }

    /// The full assembly source (for inspection and debugging).
    pub fn source(self, params: &Params) -> String {
        assert!(params.dataset < 3, "datasets are 0..3");
        assert!(params.iterations >= 1, "at least one iteration");
        kernels::full(self, params)
    }

    /// Generate the init-phase excerpt (the paper's Fig. 3 subjects).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark has no excerpt (only subsets A and B do) or
    /// the generated assembly fails to assemble.
    pub fn excerpt(self, dataset: usize) -> Program {
        assert!(dataset < 3, "datasets are 0..3");
        let source = kernels::excerpt(self, dataset)
            .unwrap_or_else(|| panic!("{} has no excerpt variant", self.name()));
        match assemble(&source) {
            Ok(program) => program,
            Err(e) => panic!("excerpt {} failed to assemble: {e}", self.name()),
        }
    }

    /// Whether an excerpt variant exists.
    pub fn has_excerpt(self) -> bool {
        Benchmark::EXCERPT_SUBSET_A.contains(&self) || Benchmark::EXCERPT_SUBSET_B.contains(&self)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Characterization {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Total executed instructions.
    pub total: u64,
    /// Instructions through the integer unit.
    pub iu: u64,
    /// Memory instructions.
    pub memory: u64,
    /// Instruction diversity (unique opcodes).
    pub diversity: usize,
    /// Full run statistics, for deeper analysis.
    pub stats: RunStats,
}

/// Run a program to completion on the ISS and return its execution
/// statistics — the one ISS-side probe every diversity measurement
/// (Table 1 rows, Fig. 7 calibration points, `D` for a prediction)
/// goes through.
///
/// # Panics
///
/// Panics if the program fails to halt within a generous budget — that
/// would be a workload bug.
pub fn profile(program: &Program) -> RunStats {
    let mut iss = Iss::new(IssConfig::default());
    iss.load(program);
    let outcome = iss.run(200_000_000);
    assert!(
        matches!(outcome, RunOutcome::Halted { .. }),
        "workload did not halt: {outcome:?}"
    );
    iss.stats().clone()
}

/// Run a benchmark on the ISS and produce its Table 1 row.
///
/// # Panics
///
/// Panics if the benchmark fails to halt (see [`profile`]).
pub fn characterize(benchmark: Benchmark, params: &Params) -> Characterization {
    let stats = profile(&benchmark.program(params));
    Characterization {
        benchmark,
        total: stats.instructions,
        iu: stats.iu_instructions,
        memory: stats.memory_instructions,
        diversity: stats.diversity(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::by_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::by_name("nope"), None);
    }

    #[test]
    fn kinds_partition() {
        assert_eq!(
            Benchmark::ALL
                .iter()
                .filter(|b| b.kind() == Kind::Synthetic)
                .count(),
            2
        );
    }

    #[test]
    fn profile_measures_diversity_and_its_unit_refinement() {
        let p = assemble("_start: mov 1, %o0\n sll %o0, 2, %o0\n halt\n").unwrap();
        let stats = profile(&p);
        // or, sll, ticc
        assert_eq!(stats.diversity(), 3);
        assert_eq!(stats.unit_diversity(sparc_isa::Unit::Shift), 1);
        assert_eq!(stats.unit_diversity(sparc_isa::Unit::MulDiv), 0);
        assert_eq!(stats.unit_diversity(sparc_isa::Unit::Fetch), 3);
    }

    #[test]
    fn excerpt_subsets_have_excerpts() {
        for b in Benchmark::EXCERPT_SUBSET_A
            .iter()
            .chain(&Benchmark::EXCERPT_SUBSET_B)
        {
            assert!(b.has_excerpt(), "{b}");
        }
        assert!(!Benchmark::Membench.has_excerpt());
    }
}

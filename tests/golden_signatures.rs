//! Pinned golden signatures: exit checksum, dynamic instruction count and
//! the ISS's timing and instrumentation profile for every benchmark/dataset
//! pair.
//!
//! The workload generators are part of the experimental apparatus; any
//! accidental change to a kernel, a dataset seed or the shared runtime
//! shifts every measured Pf. This table freezes the behavioural identity
//! of the suite — an intentional workload change must update it
//! deliberately (regenerate with the snippet in the test's source).
//!
//! The profile table also pins the simulator itself: an optimisation of the
//! ISS hot path (decode caching, memory lookup, instrumentation counters)
//! must leave cycles, cache statistics and every instrumentation counter
//! bit-identical.

use sparc_isa::Unit;
use sparc_iss::{Iss, IssConfig, RunOutcome};
use workloads::{Benchmark, Params};

/// `(benchmark, dataset, exit checksum, executed instructions)`.
const GOLDEN: &[(Benchmark, usize, u32, u64)] = &[
    (Benchmark::A2time, 0, 0xf39c5a8a, 45346),
    (Benchmark::A2time, 1, 0xe4f0d5ea, 45326),
    (Benchmark::A2time, 2, 0x542d8782, 45332),
    (Benchmark::Ttsprk, 0, 0x41d32686, 57940),
    (Benchmark::Ttsprk, 1, 0x45e66acb, 57948),
    (Benchmark::Ttsprk, 2, 0x4dbd1157, 57966),
    (Benchmark::Rspeed, 0, 0xb6b3f006, 44280),
    (Benchmark::Rspeed, 1, 0xcdefac0f, 44276),
    (Benchmark::Rspeed, 2, 0x751f8acc, 44288),
    (Benchmark::Tblook, 0, 0xbd9d3e71, 92736),
    (Benchmark::Tblook, 1, 0xb308fda5, 92734),
    (Benchmark::Tblook, 2, 0x3f547ba0, 92730),
    (Benchmark::Canrdr, 0, 0x382c4ae5, 40406),
    (Benchmark::Canrdr, 1, 0xbe902738, 41392),
    (Benchmark::Canrdr, 2, 0x4dbab429, 39936),
    (Benchmark::Puwmod, 0, 0x27bded73, 50122),
    (Benchmark::Puwmod, 1, 0xc26b0523, 50094),
    (Benchmark::Puwmod, 2, 0x827d22f7, 50276),
    (Benchmark::Basefp, 0, 0x7ce539ec, 47646),
    (Benchmark::Basefp, 1, 0x859d57b8, 47640),
    (Benchmark::Basefp, 2, 0x2d2517a0, 47650),
    (Benchmark::Bitmnp, 0, 0xcf9fd4f9, 212018),
    (Benchmark::Bitmnp, 1, 0x3c4effad, 211892),
    (Benchmark::Bitmnp, 2, 0x53e9414e, 211346),
    (Benchmark::Membench, 0, 0xa419fc00, 36924),
    (Benchmark::Membench, 1, 0x0fca5c00, 36924),
    (Benchmark::Membench, 2, 0x00903400, 36924),
    (Benchmark::Intbench, 0, 0x47d25ca4, 1476),
    (Benchmark::Intbench, 1, 0x341077aa, 1476),
    (Benchmark::Intbench, 2, 0x2141219c, 1476),
];

#[test]
fn golden_signatures_are_stable() {
    // Regenerate the table with:
    //   for (b, ds) in all pairs { run on the ISS, print exit code + insns }
    for &(bench, dataset, checksum, instructions) in GOLDEN {
        let program = bench.program(&Params::with_dataset(dataset));
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        let outcome = iss.run(100_000_000);
        assert_eq!(
            outcome,
            RunOutcome::Halted { code: checksum },
            "{bench}/ds{dataset}: checksum drifted"
        );
        assert_eq!(
            iss.stats().instructions,
            instructions,
            "{bench}/ds{dataset}: dynamic length drifted"
        );
    }
}

#[test]
fn checksums_are_nonzero_and_dataset_distinct() {
    // A zero checksum indicates a degenerate mixer (xor-rotate telescoping
    // — a real bug this suite once had); identical checksums across
    // datasets indicate datasets not actually reaching the output.
    for bench in Benchmark::ALL {
        let codes: Vec<u32> = GOLDEN
            .iter()
            .filter(|g| g.0 == bench)
            .map(|g| g.2)
            .collect();
        assert_eq!(codes.len(), 3, "{bench}");
        for &code in &codes {
            assert_ne!(code, 0, "{bench}: degenerate checksum");
        }
        assert!(
            codes[0] != codes[1] && codes[1] != codes[2] && codes[0] != codes[2],
            "{bench}: datasets do not reach the checksum: {codes:x?}"
        );
    }
}

/// `(benchmark, dataset, ISS cycles, [I-cache hits, I-cache misses,
/// D-cache hits, D-cache misses], instrumentation digest)`; the digest is
/// [`profile_digest`].
#[rustfmt::skip]
const PROFILE: &[(Benchmark, usize, u64, [u64; 4], u64)] = &[
    (Benchmark::A2time, 0, 115655, [45328, 18, 4734, 898], 0xa85eb783b986603f),
    (Benchmark::A2time, 1, 115635, [45308, 18, 4734, 898], 0x717a294b011fe62e),
    (Benchmark::A2time, 2, 115641, [45314, 18, 4734, 898], 0xd084e2fd3f4a9abf),
    (Benchmark::Ttsprk, 0, 148793, [57919, 21, 5755, 901], 0x1f4b3155a62f149a),
    (Benchmark::Ttsprk, 1, 148801, [57927, 21, 5755, 901], 0x017efcd44aafbf57),
    (Benchmark::Ttsprk, 2, 148819, [57945, 21, 5755, 901], 0xf721e69cc367d05b),
    (Benchmark::Rspeed, 0, 114625, [44260, 20, 6786, 894], 0xef706fda55b43525),
    (Benchmark::Rspeed, 1, 114621, [44256, 20, 6786, 894], 0x9987c3f2eabd92b5),
    (Benchmark::Rspeed, 2, 114633, [44268, 20, 6786, 894], 0x31e45f70ba07179d),
    (Benchmark::Tblook, 0, 167821, [92714, 22, 8301, 915], 0x85572b896dd1dcd6),
    (Benchmark::Tblook, 1, 167819, [92712, 22, 8301, 915], 0x370d3576cd9ac069),
    (Benchmark::Tblook, 2, 167815, [92708, 22, 8301, 915], 0xb333e0e98b84ac96),
    (Benchmark::Canrdr, 0, 70643, [40384, 22, 4447, 2457], 0x0444912d77570e03),
    (Benchmark::Canrdr, 1, 70063, [41370, 22, 4485, 2701], 0x65ee29bcd576d075),
    (Benchmark::Canrdr, 2, 69561, [39914, 22, 4364, 2438], 0xfd451db2df3c42a9),
    (Benchmark::Puwmod, 0, 105095, [50101, 21, 5182, 1474], 0xc16c3ab3194e1971),
    (Benchmark::Puwmod, 1, 105067, [50073, 21, 5182, 1474], 0x95b6a8f386a07565),
    (Benchmark::Puwmod, 2, 105249, [50255, 21, 5182, 1474], 0xe73d5435158d1669),
    (Benchmark::Basefp, 0, 120523, [47627, 19, 5694, 962], 0x61f1b4cb7c94e8fd),
    (Benchmark::Basefp, 1, 120517, [47621, 19, 5694, 962], 0xc69948c2943e3d28),
    (Benchmark::Basefp, 2, 120527, [47631, 19, 5694, 962], 0x4683e19084171318),
    (Benchmark::Bitmnp, 0, 261335, [212000, 18, 4734, 898], 0xe43fafe6f54c27c7),
    (Benchmark::Bitmnp, 1, 261209, [211874, 18, 4734, 898], 0x6a9b053805aeda84),
    (Benchmark::Bitmnp, 2, 260663, [211328, 18, 4734, 898], 0xc9f551cb65ef3e2f),
    (Benchmark::Membench, 0, 51451, [36915, 9, 6894, 1300], 0xd3faf2947a3391a2),
    (Benchmark::Membench, 1, 51451, [36915, 9, 6894, 1300], 0xd3faf2947a3391a2),
    (Benchmark::Membench, 2, 51451, [36915, 9, 6894, 1300], 0xd3faf2947a3391a2),
    (Benchmark::Intbench, 0, 1549, [1469, 7, 3, 1], 0x27c447acdffc4e9e),
    (Benchmark::Intbench, 1, 1549, [1469, 7, 3, 1], 0x27c447acdffc4e9e),
    (Benchmark::Intbench, 2, 1549, [1469, 7, 3, 1], 0x27c447acdffc4e9e),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over the named opcode histogram (mnemonic bytes, then the count
/// little-endian), the access count of every unit in [`Unit::ALL`] order,
/// and the memory-instruction, annulled and trap counters.
fn profile_digest(iss: &Iss) -> u64 {
    let stats = iss.stats();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (name, count) in stats.named_histogram() {
        fnv1a(&mut hash, name.as_bytes());
        fnv1a(&mut hash, &count.to_le_bytes());
    }
    let accesses = stats.unit_accesses();
    for unit in Unit::ALL {
        fnv1a(&mut hash, &accesses[unit.index()].to_le_bytes());
    }
    for n in [stats.memory_instructions, stats.annulled, stats.traps] {
        fnv1a(&mut hash, &n.to_le_bytes());
    }
    hash
}

#[test]
fn golden_profiles_are_stable() {
    // Regenerate the table with:
    //   for (b, ds) in all pairs { run on the ISS, print cycles, the four
    //   cache counters and profile_digest }
    assert_eq!(PROFILE.len(), GOLDEN.len());
    for &(bench, dataset, cycles, caches, digest) in PROFILE {
        let program = bench.program(&Params::with_dataset(dataset));
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        iss.run(100_000_000);
        assert_eq!(iss.cycles(), cycles, "{bench}/ds{dataset}: cycles drifted");
        let (i, d) = (iss.timing().icache_stats(), iss.timing().dcache_stats());
        assert_eq!(
            [i.hits, i.misses, d.hits, d.misses],
            caches,
            "{bench}/ds{dataset}: cache statistics drifted"
        );
        assert_eq!(
            profile_digest(&iss),
            digest,
            "{bench}/ds{dataset}: instrumentation profile drifted"
        );
    }
}

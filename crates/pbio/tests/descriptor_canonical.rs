//! Descriptor bytes are canonical: a byte string `decode_descriptor`
//! accepts is exactly the one `encode_descriptor` writes for the result.
//!
//! Format ids are hashed over the encoding, so two accepted spellings of
//! one descriptor would give one format two ids.  Each case encodes a
//! random format (nested member included) on one of the four machine
//! models, then damages the bytes with bit flips, splices and rewritten
//! length fields, and checks every mutant the decoder accepts.

use proptest::prelude::*;

use openmeta_pbio::codec::{decode_descriptor, encode_descriptor};
use openmeta_pbio::prelude::*;

const MACHINES: [MachineModel; 4] =
    [MachineModel::SPARC32, MachineModel::X86, MachineModel::X86_64, MachineModel::SPARC64];

/// Field types the generated formats draw from: every field kind the
/// codec writes (scalar, string, static and dynamic array, nested).
const TYPES: &[(&str, usize)] = &[
    ("integer", 4),
    ("integer", 8),
    ("unsigned", 2),
    ("float", 8),
    ("char", 1),
    ("boolean", 1),
    ("string", 0),
    ("float[3]", 4),
    ("Inner", 0),
];

fn spec_fields(picks: &[usize], dynamic: bool) -> Vec<IOField> {
    let mut fields: Vec<IOField> = picks
        .iter()
        .enumerate()
        .map(|(i, &p)| IOField::auto(format!("f{i}"), TYPES[p].0, TYPES[p].1))
        .collect();
    if dynamic {
        fields.push(IOField::auto("n", "integer", 4));
        fields.push(IOField::auto("samples", "float[n]", 8));
    }
    fields
}

/// The encoded outer descriptor of a generated format.
fn encoded(picks: &[usize], dynamic: bool, machine: MachineModel) -> Vec<u8> {
    let reg = FormatRegistry::new(machine);
    reg.register(FormatSpec::new("Inner", spec_fields(&[0, 6], true))).expect("inner registers");
    let outer =
        reg.register(FormatSpec::new("Outer", spec_fields(picks, dynamic))).expect("registers");
    encode_descriptor(&outer)
}

/// A small deterministic generator for the mutations of one case.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One damaged copy of `good`: one to three flips, splices or length
/// rewrites.  Length rewrites nudge a big-endian u16 or u32 by a few
/// units, at the name's length prefix, the field count, or anywhere.
fn mutate(good: &[u8], rng: &mut Xorshift) -> Vec<u8> {
    let name_len = u16::from_be_bytes([good[0], good[1]]) as usize;
    let field_count_at = 2 + name_len + 4 + 4 + 1;
    let mut b = good.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(3) {
            0 => {
                let i = rng.below(b.len());
                b[i] ^= 1 << rng.below(8);
            }
            1 => {
                let (at, cut) = (rng.below(b.len() + 1), rng.below(9));
                let cut = cut.min(b.len() - at);
                let from = rng.below(good.len());
                let take = rng.below(9).min(good.len() - from);
                b.splice(at..at + cut, good[from..from + take].iter().copied());
            }
            _ => {
                let width = if rng.below(2) == 0 { 2 } else { 4 };
                let at = match rng.below(3) {
                    0 => 0,
                    1 => field_count_at,
                    _ => rng.below(b.len()),
                };
                if at + width > b.len() {
                    continue;
                }
                let delta = rng.below(7) as i64 - 3;
                let old =
                    b[at..at + width].iter().fold(0i64, |acc, &byte| (acc << 8) | i64::from(byte));
                let new = old.wrapping_add(delta).to_be_bytes();
                b[at..at + width].copy_from_slice(&new[8 - width..]);
            }
        }
        if b.is_empty() {
            b.push(0);
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accepted_descriptor_bytes_re_encode_identically(
        picks in proptest::collection::vec(0usize..TYPES.len(), 1..6),
        dynamic in any::<bool>(),
        machine in 0usize..4,
        seed in any::<u64>(),
    ) {
        let good = encoded(&picks, dynamic, MACHINES[machine]);
        prop_assert_eq!(encode_descriptor(&decode_descriptor(&good).unwrap()), good.clone());
        let mut rng = Xorshift(seed | 1);
        let mut accepted = 0;
        for _ in 0..64 {
            let b = mutate(&good, &mut rng);
            if let Ok(decoded) = decode_descriptor(&b) {
                accepted += 1;
                prop_assert_eq!(encode_descriptor(&decoded), b);
            }
        }
        // Offsets and sizes are free-form u32s, so some mutants always
        // decode; none at all would mean the mutator lost its reach.
        prop_assert!(accepted > 0, "no mutant decoded");
    }
}

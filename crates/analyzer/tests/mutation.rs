//! Mutation testing for the verifier: corrupt a valid compiled plan in a
//! single structured way and assert the analyzer rejects the mutant.
//! Acceptance of the unmutated corpus is covered by `tests/corpus.rs`;
//! together they pin the verifier between false positives and false
//! negatives.

use openmeta_analyzer::verify::{
    verify_convert_program, verify_encode_program, verify_same_layout,
};
use openmeta_bench::workloads::{figure3_cases, figure6_cases};
use openmeta_pbio::plan::{ConvertProgram, EncodeProgram, PlanOp};
use openmeta_pbio::{
    layouts_match, ByteOrder, ConvertPlan, EncodePlan, FieldKind, FormatDescriptor, FormatRegistry,
    MachineModel,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Every corpus format resolved for the two most different machine models.
fn corpus_pairs() -> Vec<(Arc<FormatDescriptor>, Arc<FormatDescriptor>)> {
    let mut out = Vec::new();
    for case in figure3_cases().into_iter().chain(figure6_cases()) {
        let sparc = FormatRegistry::new(MachineModel::SPARC32);
        let x64 = FormatRegistry::new(MachineModel::X86_64);
        let mut a = None;
        let mut b = None;
        for spec in &case.compiled {
            a = Some(sparc.register(spec.clone()).expect("corpus registers"));
            b = Some(x64.register(spec.clone()).expect("corpus registers"));
        }
        out.push((a.expect("specs"), b.expect("specs")));
    }
    out
}

/// The structured single mutations the issue calls out, plus a few more.
#[derive(Debug, Clone, Copy)]
enum ConvertMutation {
    /// Shift one op's destination offset.
    ShiftDst(usize, u32),
    /// Shift one op's source offset.
    ShiftSrc(usize, u32),
    /// Drop one op entirely.
    DropOp(usize),
    /// Inflate a copy length / element count.
    Inflate(usize, u32),
    /// Give a swap a non-power-of-two width (misaligned primitive).
    BreakSwapWidth(usize),
    /// Retarget one var-length move.
    ShiftVarDst(usize, usize),
    /// Drop one var-length move.
    DropVar(usize),
}

/// Apply a mutation; returns `false` if it does not apply to this program
/// (e.g. no var ops to drop), in which case the case is vacuous.
fn apply_convert(prog: &mut ConvertProgram, m: ConvertMutation) -> bool {
    match m {
        ConvertMutation::ShiftDst(i, delta) => {
            let delta = delta.max(1);
            let Some(op) = nth_op(prog, i) else { return false };
            match op {
                PlanOp::Copy { dst, .. }
                | PlanOp::Swap { dst, .. }
                | PlanOp::Int { dst, .. }
                | PlanOp::Float { dst, .. } => *dst += delta,
            }
            true
        }
        ConvertMutation::ShiftSrc(i, delta) => {
            let delta = delta.max(1);
            let Some(op) = nth_op(prog, i) else { return false };
            match op {
                PlanOp::Copy { src, .. }
                | PlanOp::Swap { src, .. }
                | PlanOp::Int { src, .. }
                | PlanOp::Float { src, .. } => *src += delta,
            }
            true
        }
        ConvertMutation::DropOp(i) => {
            if prog.ops.is_empty() {
                return false;
            }
            let i = i % prog.ops.len();
            prog.ops.remove(i);
            true
        }
        ConvertMutation::Inflate(i, by) => {
            let by = by.max(1);
            let Some(op) = nth_op(prog, i) else { return false };
            match op {
                PlanOp::Copy { len, .. } => *len += by,
                PlanOp::Swap { count, .. }
                | PlanOp::Int { count, .. }
                | PlanOp::Float { count, .. } => *count += by,
            }
            true
        }
        ConvertMutation::BreakSwapWidth(i) => {
            let swaps: Vec<usize> = prog
                .ops
                .iter()
                .enumerate()
                .filter_map(|(j, op)| matches!(op, PlanOp::Swap { .. }).then_some(j))
                .collect();
            if swaps.is_empty() {
                return false;
            }
            let j = swaps[i % swaps.len()];
            if let PlanOp::Swap { width, .. } = &mut prog.ops[j] {
                *width = 3;
            }
            true
        }
        ConvertMutation::ShiftVarDst(i, delta) => {
            if prog.var_ops.is_empty() {
                return false;
            }
            let i = i % prog.var_ops.len();
            prog.var_ops[i].dst_off += delta.max(1);
            true
        }
        ConvertMutation::DropVar(i) => {
            if prog.var_ops.is_empty() {
                return false;
            }
            let i = i % prog.var_ops.len();
            prog.var_ops.remove(i);
            true
        }
    }
}

fn nth_op(prog: &mut ConvertProgram, i: usize) -> Option<&mut PlanOp> {
    if prog.ops.is_empty() {
        return None;
    }
    let i = i % prog.ops.len();
    prog.ops.get_mut(i)
}

fn mutation_from(selector: u8, i: usize, delta: u32) -> ConvertMutation {
    match selector % 7 {
        0 => ConvertMutation::ShiftDst(i, delta),
        1 => ConvertMutation::ShiftSrc(i, delta),
        2 => ConvertMutation::DropOp(i),
        3 => ConvertMutation::Inflate(i, delta),
        4 => ConvertMutation::BreakSwapWidth(i),
        5 => ConvertMutation::ShiftVarDst(i, delta as usize),
        _ => ConvertMutation::DropVar(i),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single structured mutation of any corpus convert plan is
    /// rejected with at least one error.
    #[test]
    fn convert_mutants_rejected(case_idx in 0usize..7, selector in 0u8..250, i in 0usize..64, delta in 1u32..16) {
        let pairs = corpus_pairs();
        let (from, to) = &pairs[case_idx % pairs.len()];
        let clean = ConvertPlan::compile(from, to).expect("corpus compiles").program().clone();
        let mut prog = clean.clone();
        let m = mutation_from(selector, i, delta);
        if apply_convert(&mut prog, m) {
            prop_assert!(prog != clean, "mutation {m:?} must change the program");
            let verdict = verify_convert_program(from, to, &prog);
            prop_assert!(
                verdict.has_errors(),
                "mutant survived: {m:?} on {}→{}",
                from.name,
                to.name
            );
        }
    }
}

/// Encode-program mutations: header corruption, slot-table damage and
/// lies about the image.  An encode program's slot table also drives
/// extraction, conversions (the sender's locates payloads, the
/// receiver's fixes length fields) and borrowed views.
#[derive(Debug, Clone, Copy)]
enum EncodeMutation {
    FlipHeaderByte(usize),
    DropSlot(usize),
    ShiftSlot(usize, usize),
    ShrinkRecord,
    FlipOrder,
}

fn apply_encode(prog: &mut EncodeProgram, m: EncodeMutation) -> bool {
    match m {
        EncodeMutation::FlipHeaderByte(i) => {
            let i = i % prog.header.len();
            prog.header[i] ^= 0xff;
            true
        }
        EncodeMutation::DropSlot(i) => {
            if prog.slots.is_empty() {
                return false;
            }
            let i = i % prog.slots.len();
            prog.slots.remove(i);
            true
        }
        EncodeMutation::ShiftSlot(i, delta) => {
            if prog.slots.is_empty() {
                return false;
            }
            let i = i % prog.slots.len();
            prog.slots[i].off += delta.max(1);
            true
        }
        EncodeMutation::ShrinkRecord => {
            if prog.record_size == 0 {
                return false;
            }
            prog.record_size -= 1;
            true
        }
        EncodeMutation::FlipOrder => {
            prog.order = match prog.order {
                ByteOrder::Big => ByteOrder::Little,
                ByteOrder::Little => ByteOrder::Big,
            };
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_mutants_rejected(case_idx in 0usize..7, selector in 0u8..5, i in 0usize..64, delta in 1usize..16) {
        let pairs = corpus_pairs();
        let (desc, _) = &pairs[case_idx % pairs.len()];
        let clean = EncodePlan::compile(desc).expect("corpus compiles").program().clone();
        let mut prog = clean.clone();
        let m = match selector {
            0 => EncodeMutation::FlipHeaderByte(i),
            1 => EncodeMutation::DropSlot(i),
            2 => EncodeMutation::ShiftSlot(i, delta),
            3 => EncodeMutation::ShrinkRecord,
            _ => EncodeMutation::FlipOrder,
        };
        if apply_encode(&mut prog, m) {
            prop_assert!(prog != clean);
            let verdict = verify_encode_program(desc, &prog);
            prop_assert!(verdict.has_errors(), "mutant survived: {m:?} on {}", desc.name);
        }
    }
}

/// A deterministic sweep: every op of every corpus convert plan, under
/// every offset/drop/inflate mutation, is rejected — 100% mutant kill,
/// not a sampled claim.
#[test]
fn exhaustive_per_op_mutants_rejected() {
    let mut mutants = 0usize;
    for (from, to) in corpus_pairs() {
        let clean = ConvertPlan::compile(&from, &to).expect("corpus compiles").program().clone();
        let op_mutations = |i: usize| {
            [
                ConvertMutation::ShiftDst(i, 1),
                ConvertMutation::ShiftSrc(i, 1),
                ConvertMutation::DropOp(i),
                ConvertMutation::Inflate(i, 1),
            ]
        };
        for i in 0..clean.ops.len() {
            for m in op_mutations(i) {
                let mut prog = clean.clone();
                assert!(apply_convert(&mut prog, m));
                assert!(
                    verify_convert_program(&from, &to, &prog).has_errors(),
                    "mutant survived: {m:?} op {i} on {}→{}",
                    from.name,
                    to.name
                );
                mutants += 1;
            }
        }
        for i in 0..clean.var_ops.len() {
            for m in [ConvertMutation::ShiftVarDst(i, 1), ConvertMutation::DropVar(i)] {
                let mut prog = clean.clone();
                assert!(apply_convert(&mut prog, m));
                assert!(
                    verify_convert_program(&from, &to, &prog).has_errors(),
                    "mutant survived: {m:?} var {i} on {}→{}",
                    from.name,
                    to.name
                );
                mutants += 1;
            }
        }
    }
    // Coalescing keeps corpus programs short; the corpus still yields
    // dozens of distinct single mutations, every one of which must die.
    assert!(mutants >= 50, "corpus produced only {mutants} mutants");
}

/// A deterministic sweep over every corpus encode program, the slot
/// table extraction, conversions and views all run: every slot dropped,
/// every slot shifted, the record shrunk and the byte order flipped —
/// each mutant is rejected.
#[test]
fn encode_slot_mutants_rejected() {
    let mut mutants = 0usize;
    for desc in corpus_pairs().into_iter().flat_map(|(a, b)| [a, b]) {
        let plan = EncodePlan::compile(&desc).expect("corpus compiles");
        let clean = plan.program();
        let per_slot = (0..clean.slots.len())
            .flat_map(|i| [EncodeMutation::DropSlot(i), EncodeMutation::ShiftSlot(i, 1)]);
        for m in per_slot.chain([EncodeMutation::ShrinkRecord, EncodeMutation::FlipOrder]) {
            let mut prog = clean.clone();
            assert!(apply_encode(&mut prog, m));
            assert!(prog != *clean, "mutation {m:?} must change the program");
            assert!(
                verify_encode_program(&desc, &prog).has_errors(),
                "mutant survived: {m:?} on {}",
                desc.name
            );
            mutants += 1;
        }
    }
    // 14 descriptors give 28 whole-program mutants; the rest are slots.
    assert!(mutants >= 50, "corpus produced only {mutants} encode mutants");
}

/// One way to damage a receiver descriptor's layout, and the
/// same-layout check that must name it.
#[derive(Debug, Clone, Copy)]
enum LayoutDamage {
    FlipOrder,
    ShrinkRecord,
    ChangeAlign,
    /// Shift the top-level leaf at this index.
    ShiftLeaf(usize),
    /// Rename a leaf of the nested record at this top-level index.
    RenameNestedLeaf(usize),
}

impl LayoutDamage {
    fn check(self) -> &'static str {
        match self {
            LayoutDamage::FlipOrder => "view-order",
            LayoutDamage::ShrinkRecord => "view-size",
            LayoutDamage::ChangeAlign => "view-align",
            LayoutDamage::ShiftLeaf(_) | LayoutDamage::RenameNestedLeaf(_) => "view-fields",
        }
    }

    fn apply(self, desc: &mut FormatDescriptor) {
        match self {
            LayoutDamage::FlipOrder => {
                desc.machine.byte_order = match desc.machine.byte_order {
                    ByteOrder::Big => ByteOrder::Little,
                    ByteOrder::Little => ByteOrder::Big,
                }
            }
            LayoutDamage::ShrinkRecord => desc.record_size -= 1,
            LayoutDamage::ChangeAlign => desc.align *= 2,
            LayoutDamage::ShiftLeaf(i) => desc.fields[i].offset += 1,
            LayoutDamage::RenameNestedLeaf(i) => {
                let FieldKind::Nested(sub) = &mut desc.fields[i].kind else {
                    panic!("field {i} is not nested")
                };
                let mut renamed = (**sub).clone();
                renamed.fields[0].name.push_str("_renamed");
                *sub = Arc::new(renamed);
            }
        }
    }
}

/// The same-layout certificate a borrowed view needs: over every
/// same-machine corpus pair, each single damage to the receiver's layout
/// is named by its check in `verify_same_layout` and fails
/// `layouts_match`, while the undamaged pair passes both.
#[test]
fn same_layout_damage_rejected() {
    let mut damaged = 0usize;
    let mut nested = 0usize;
    for desc in corpus_pairs().into_iter().flat_map(|(a, b)| [a, b]) {
        let receiver = (*desc).clone();
        assert!(layouts_match(&desc, &receiver), "{}", desc.name);
        let clean = verify_same_layout(&desc, &receiver);
        assert!(!clean.has_errors(), "{}: {:?}", desc.name, clean.violations());

        let leaves = desc.fields.iter().enumerate();
        let per_field = leaves.map(|(i, f)| match f.kind {
            FieldKind::Nested(_) => LayoutDamage::RenameNestedLeaf(i),
            _ => LayoutDamage::ShiftLeaf(i),
        });
        let whole =
            [LayoutDamage::FlipOrder, LayoutDamage::ShrinkRecord, LayoutDamage::ChangeAlign];
        for damage in whole.into_iter().chain(per_field) {
            let mut receiver = (*desc).clone();
            damage.apply(&mut receiver);
            let verdict = verify_same_layout(&desc, &receiver);
            assert!(
                verdict.violations().iter().any(|v| v.check == damage.check()),
                "{damage:?} on {}: {:?}",
                desc.name,
                verdict.violations()
            );
            assert!(!layouts_match(&desc, &receiver), "{damage:?} on {}", desc.name);
            damaged += 1;
            nested += usize::from(matches!(damage, LayoutDamage::RenameNestedLeaf(_)));
        }
    }
    assert!(nested > 0, "the corpus must exercise a nested rename");
    assert!(damaged >= 50, "corpus produced only {damaged} damaged layouts");
}

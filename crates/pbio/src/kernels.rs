//! Element kernels for compiled convert plans.
//!
//! A plan knows each run's element widths and byte orders when it is
//! compiled, so these kernels settle the (width, order) pair once per
//! run and then loop over fixed-size chunks with `from_{le,be}_bytes`,
//! `as` and `to_{le,be}_bytes`: one load, convert and store per element,
//! which the compiler unrolls and vectorizes.  Plans reach execution
//! only through the registry's gate, whose verifier admits integer
//! widths 1, 2, 4 and 8 and float widths 4 and 8 — every width these
//! kernels take.  The byte-at-a-time scalar codecs in [`crate::record`]
//! (`read_uint`, `read_float`, …) are the tests' reference.

use crate::machine::ByteOrder::{self, Big, Little};

/// Map each `SW`-byte element of `src` through `f` into the matching
/// `DW`-byte element of `dst`.
#[inline(always)]
fn map_elems<const SW: usize, const DW: usize>(
    src: &[u8],
    dst: &mut [u8],
    f: impl Fn([u8; SW]) -> [u8; DW],
) {
    for (s, d) in src.chunks_exact(SW).zip(dst.chunks_exact_mut(DW)) {
        d.copy_from_slice(&f(s.try_into().expect("chunks_exact yields SW bytes")));
    }
}

/// Byte-reverse each `width`-byte element of `src` into `dst`.
pub(crate) fn swap_elems(src: &[u8], dst: &mut [u8], width: usize) {
    debug_assert_eq!(src.len(), dst.len());
    match width {
        1 => dst.copy_from_slice(src),
        2 => map_elems::<2, 2>(src, dst, |b| u16::from_ne_bytes(b).swap_bytes().to_ne_bytes()),
        4 => map_elems::<4, 4>(src, dst, |b| u32::from_ne_bytes(b).swap_bytes().to_ne_bytes()),
        8 => map_elems::<8, 8>(src, dst, |b| u64::from_ne_bytes(b).swap_bytes().to_ne_bytes()),
        w => {
            for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
                for j in 0..w {
                    d[j] = s[w - 1 - j];
                }
            }
        }
    }
}

/// Elements an integer conversion widens to `u64` per pass.
const INT_BLOCK: usize = 64;

/// Integer width change over `src.len() / sw` elements: each element is
/// read as a `u64` (sign-extended iff `signed`) and its low `dw` bytes
/// are written.  It runs a block at a time through a `u64` buffer on the
/// stack, so the 12 source and 7 destination (width, order) cases are
/// 19 loops rather than 84 fused ones.
pub(crate) fn convert_ints(
    src: &[u8],
    sw: usize,
    so: ByteOrder,
    signed: bool,
    dst: &mut [u8],
    dw: usize,
    dord: ByteOrder,
) {
    let mut wide = [0u64; INT_BLOCK];
    for (s, d) in src.chunks(INT_BLOCK * sw).zip(dst.chunks_mut(INT_BLOCK * dw)) {
        let wide = &mut wide[..s.len() / sw];
        widen_ints(s, sw, so, signed, wide);
        narrow_ints(wide, d, dw, dord);
    }
}

/// Read `sw`-byte integers into `wide`, sign-extending iff `signed`.
fn widen_ints(src: &[u8], sw: usize, so: ByteOrder, signed: bool, wide: &mut [u64]) {
    fn each<const SW: usize>(src: &[u8], wide: &mut [u64], f: impl Fn([u8; SW]) -> u64) {
        for (s, w) in src.chunks_exact(SW).zip(wide) {
            *w = f(s.try_into().expect("chunks_exact yields SW bytes"));
        }
    }
    match (sw, so, signed) {
        (1, _, false) => each::<1>(src, wide, |b| u64::from(b[0])),
        (1, _, true) => each::<1>(src, wide, |b| b[0] as i8 as u64),
        (2, Little, false) => each::<2>(src, wide, |b| u64::from(u16::from_le_bytes(b))),
        (2, Little, true) => each::<2>(src, wide, |b| i16::from_le_bytes(b) as u64),
        (2, Big, false) => each::<2>(src, wide, |b| u64::from(u16::from_be_bytes(b))),
        (2, Big, true) => each::<2>(src, wide, |b| i16::from_be_bytes(b) as u64),
        (4, Little, false) => each::<4>(src, wide, |b| u64::from(u32::from_le_bytes(b))),
        (4, Little, true) => each::<4>(src, wide, |b| i32::from_le_bytes(b) as u64),
        (4, Big, false) => each::<4>(src, wide, |b| u64::from(u32::from_be_bytes(b))),
        (4, Big, true) => each::<4>(src, wide, |b| i32::from_be_bytes(b) as u64),
        (8, Little, _) => each::<8>(src, wide, u64::from_le_bytes),
        (8, Big, _) => each::<8>(src, wide, u64::from_be_bytes),
        _ => unreachable!("certified plans have no {sw}-byte integers"),
    }
}

/// Write the low `dw` bytes of each of `wide` into `dst`.
fn narrow_ints(wide: &[u64], dst: &mut [u8], dw: usize, dord: ByteOrder) {
    fn each<const DW: usize>(wide: &[u64], dst: &mut [u8], f: impl Fn(u64) -> [u8; DW]) {
        for (w, d) in wide.iter().zip(dst.chunks_exact_mut(DW)) {
            d.copy_from_slice(&f(*w));
        }
    }
    match (dw, dord) {
        (1, _) => each::<1>(wide, dst, |w| [w as u8]),
        (2, Little) => each::<2>(wide, dst, |w| (w as u16).to_le_bytes()),
        (2, Big) => each::<2>(wide, dst, |w| (w as u16).to_be_bytes()),
        (4, Little) => each::<4>(wide, dst, |w| (w as u32).to_le_bytes()),
        (4, Big) => each::<4>(wide, dst, |w| (w as u32).to_be_bytes()),
        (8, Little) => each::<8>(wide, dst, u64::to_le_bytes),
        (8, Big) => each::<8>(wide, dst, u64::to_be_bytes),
        _ => unreachable!("certified plans have no {dw}-byte integers"),
    }
}

/// Float width change over `src.len() / sw` elements, through `f64`.
pub(crate) fn convert_floats(
    src: &[u8],
    sw: usize,
    so: ByteOrder,
    dst: &mut [u8],
    dw: usize,
    dord: ByteOrder,
) {
    macro_rules! into_dst {
        ($sw:literal, $read:expr) => {
            match (dw, dord) {
                (4, Little) => map_elems::<$sw, 4>(src, dst, |b| (($read)(b) as f32).to_le_bytes()),
                (4, Big) => map_elems::<$sw, 4>(src, dst, |b| (($read)(b) as f32).to_be_bytes()),
                (8, Little) => map_elems::<$sw, 8>(src, dst, |b| ($read)(b).to_le_bytes()),
                (8, Big) => map_elems::<$sw, 8>(src, dst, |b| ($read)(b).to_be_bytes()),
                _ => unreachable!("certified plans have no {dw}-byte floats"),
            }
        };
    }
    match (sw, so) {
        (4, Little) => into_dst!(4, |b| f64::from(f32::from_le_bytes(b))),
        (4, Big) => into_dst!(4, |b| f64::from(f32::from_be_bytes(b))),
        (8, Little) => into_dst!(8, f64::from_le_bytes),
        (8, Big) => into_dst!(8, f64::from_be_bytes),
        _ => unreachable!("certified plans have no {sw}-byte floats"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_float, read_int, read_uint, write_float, write_uint};
    use proptest::prelude::*;

    /// [`convert_ints`] one element at a time through the scalar codecs.
    fn ints_reference(
        src: &[u8],
        sw: usize,
        so: ByteOrder,
        signed: bool,
        dst: &mut [u8],
        dw: usize,
        dord: ByteOrder,
    ) {
        for (s, d) in src.chunks_exact(sw).zip(dst.chunks_exact_mut(dw)) {
            let v = if signed { read_int(s, so) as u64 } else { read_uint(s, so) };
            write_uint(d, dord, v);
        }
    }

    /// [`convert_floats`] one element at a time through the scalar codecs.
    fn floats_reference(
        src: &[u8],
        sw: usize,
        so: ByteOrder,
        dst: &mut [u8],
        dw: usize,
        dord: ByteOrder,
    ) {
        for (s, d) in src.chunks_exact(sw).zip(dst.chunks_exact_mut(dw)) {
            write_float(d, dord, read_float(s, so));
        }
    }

    const ORDERS: [ByteOrder; 2] = [Little, Big];

    /// Bit patterns every float kernel must carry exactly as the
    /// reference does: ±0, ±inf, quiet and signaling NaNs with payloads,
    /// subnormals, extremes, and values that round when narrowed.
    fn special_f64s() -> Vec<u64> {
        let mut v = vec![
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            f64::NAN.to_bits(),
            0x7ff0_0000_0000_0001, // signaling NaN
            0xfff8_0000_dead_beef, // negative quiet NaN with payload
            1,                     // smallest subnormal
            0x000f_ffff_ffff_ffff, // largest subnormal
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            f64::MIN.to_bits(),
            (f32::MAX as f64 * 2.0).to_bits(), // overflows f32
            1e-45f64.to_bits(),                // rounds to an f32 subnormal
            std::f64::consts::PI.to_bits(),
        ];
        v.extend(v.clone().iter().map(|b| b ^ (1 << 63)));
        v
    }

    fn special_f32s() -> Vec<u32> {
        vec![
            0.0f32.to_bits(),
            (-0.0f32).to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            f32::NAN.to_bits(),
            0x7f80_0001, // signaling NaN
            0xffc0_1234, // negative quiet NaN with payload
            1,           // smallest subnormal
            0x8000_0001, // negative subnormal
            0x007f_ffff, // largest subnormal
            f32::MAX.to_bits(),
            f32::MIN.to_bits(),
        ]
    }

    fn encode_elems(bits: &[u64], width: usize, order: ByteOrder) -> Vec<u8> {
        let mut out = vec![0u8; bits.len() * width];
        for (b, d) in bits.iter().zip(out.chunks_exact_mut(width)) {
            write_uint(d, order, *b);
        }
        out
    }

    /// Run the float kernel and the reference over `src` for every
    /// destination (width, order) and require identical bytes.
    fn check_floats(src: &[u8], sw: usize, so: ByteOrder) {
        let n = src.len() / sw;
        for dw in [4, 8] {
            for dord in ORDERS {
                let mut fast = vec![0xAA; n * dw];
                let mut slow = vec![0x55; n * dw];
                convert_floats(src, sw, so, &mut fast, dw, dord);
                floats_reference(src, sw, so, &mut slow, dw, dord);
                assert_eq!(fast, slow, "{sw}/{so:?} -> {dw}/{dord:?}");
            }
        }
    }

    fn check_ints(src: &[u8], sw: usize, so: ByteOrder) {
        let n = src.len() / sw;
        for signed in [false, true] {
            for dw in [1, 2, 4, 8] {
                for dord in ORDERS {
                    let mut fast = vec![0xAA; n * dw];
                    let mut slow = vec![0x55; n * dw];
                    convert_ints(src, sw, so, signed, &mut fast, dw, dord);
                    ints_reference(src, sw, so, signed, &mut slow, dw, dord);
                    assert_eq!(fast, slow, "{sw}/{so:?}/signed={signed} -> {dw}/{dord:?}");
                }
            }
        }
    }

    #[test]
    fn float_kernels_carry_special_bit_patterns_like_the_reference() {
        for so in ORDERS {
            check_floats(&encode_elems(&special_f64s(), 8, so), 8, so);
            let f32s: Vec<u64> = special_f32s().into_iter().map(u64::from).collect();
            check_floats(&encode_elems(&f32s, 4, so), 4, so);
        }
    }

    #[test]
    fn int_kernels_sign_extend_and_truncate_like_the_reference() {
        for sw in [1usize, 2, 4, 8] {
            let top = if sw == 8 { u64::MAX } else { (1u64 << (8 * sw)) - 1 };
            let sign = 1u64 << (8 * sw - 1);
            let bits = [0, 1, top, sign, sign - 1, sign + 1, top - 1, 0x0123_4567_89ab_cdef & top];
            for so in ORDERS {
                check_ints(&encode_elems(&bits, sw, so), sw, so);
            }
        }
    }

    #[test]
    fn swap_matches_reversing_every_element() {
        for w in [1usize, 2, 3, 4, 8, 16] {
            let src: Vec<u8> = (0..w * 5).map(|i| i as u8).collect();
            let mut dst = vec![0; src.len()];
            swap_elems(&src, &mut dst, w);
            let want: Vec<u8> =
                src.chunks(w).flat_map(|c| c.iter().rev().copied().collect::<Vec<_>>()).collect();
            assert_eq!(dst, want, "width {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_the_scalar_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..136),
            src_sel in 0usize..8,
        ) {
            let sw = [1usize, 2, 4, 8][src_sel % 4];
            let so = ORDERS[src_sel / 4];
            let whole = bytes.len() / sw * sw;
            check_ints(&bytes[..whole], sw, so);
            if sw >= 4 {
                check_floats(&bytes[..whole], sw, so);
            }
        }
    }
}

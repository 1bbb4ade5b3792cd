//! Machine models: the architecture-dependent facts that make binary
//! interchange hard.
//!
//! PBIO's wire format is the *sender's* native representation; receivers
//! convert only on mismatch.  A [`MachineModel`] captures everything the
//! marshaling code needs to know about one side: byte order, the widths of
//! `long` and pointers, and alignment rules.  The paper's testbed was a
//! 32-bit big-endian UltraSPARC; [`MachineModel::SPARC32`] reproduces that
//! machine so the reproduction can report the same "structure size" figures
//! (e.g. `SimpleData` = 12 bytes, `JoinRequest` = 20 bytes).

use crate::error::PbioError;

/// Byte order of multi-byte scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Most significant byte first (network order, SPARC, PowerPC).
    Big,
    /// Least significant byte first (x86, x86-64, usually ARM).
    Little,
}

impl ByteOrder {
    /// The byte order of the machine running this code.
    pub fn native() -> ByteOrder {
        if cfg!(target_endian = "big") {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }
}

/// A description of one machine's data representation conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineModel {
    /// Scalar byte order.
    pub byte_order: ByteOrder,
    /// `sizeof(void*)`: the width of pointer-valued struct slots
    /// (PBIO strings and dynamic arrays occupy one pointer slot).
    pub pointer_size: usize,
    /// `sizeof(long)` / `sizeof(unsigned long)`.
    pub long_size: usize,
    /// Upper bound on alignment (i386 ABI caps `double` alignment at 4).
    pub max_align: usize,
}

impl MachineModel {
    /// The 32-bit big-endian SPARC V8 model of the paper's Sun Ultra 1/170.
    pub const SPARC32: MachineModel =
        MachineModel { byte_order: ByteOrder::Big, pointer_size: 4, long_size: 4, max_align: 8 };

    /// Classic 32-bit x86 (System V i386 ABI: 8-byte scalars align to 4).
    pub const X86: MachineModel =
        MachineModel { byte_order: ByteOrder::Little, pointer_size: 4, long_size: 4, max_align: 4 };

    /// x86-64 System V (LP64: 8-byte longs and pointers).
    pub const X86_64: MachineModel = MachineModel {
        byte_order: ByteOrder::Little,
        pointer_size: 8,
        long_size: 8,
        max_align: 16,
    };

    /// 64-bit big-endian SPARC V9 (LP64).
    pub const SPARC64: MachineModel =
        MachineModel { byte_order: ByteOrder::Big, pointer_size: 8, long_size: 8, max_align: 16 };

    /// The model of the machine running this code.
    pub fn native() -> MachineModel {
        MachineModel {
            byte_order: ByteOrder::native(),
            pointer_size: std::mem::size_of::<usize>(),
            long_size: std::mem::size_of::<std::ffi::c_long>(),
            max_align: 16,
        }
    }

    /// Alignment of a scalar of `size` bytes under this model's ABI:
    /// natural alignment capped at `max_align`.
    pub fn scalar_align(&self, size: usize) -> usize {
        debug_assert!(size.is_power_of_two() || size == 0, "scalar sizes are powers of two");
        size.clamp(1, self.max_align)
    }

    /// A compact tag for descriptor serialization and format hashing.
    pub(crate) fn tag(&self) -> u32 {
        let bo = match self.byte_order {
            ByteOrder::Big => 1u32,
            ByteOrder::Little => 0u32,
        };
        bo | ((self.pointer_size as u32) << 4)
            | ((self.long_size as u32) << 12)
            | ((self.max_align as u32) << 20)
    }

    /// Inverse of [`MachineModel::tag`].  A tag arrives from a peer, so
    /// it is rejected unless it is canonical: no unused bit set, and
    /// every width a nonzero power of two no larger than 16.
    pub(crate) fn from_tag(tag: u32) -> Result<MachineModel, PbioError> {
        const USED: u32 = 1 | (0xff << 4) | (0xff << 12) | (0xff << 20);
        let width = |shift: u32, what: &str| {
            let w = ((tag >> shift) & 0xff) as usize;
            if w.is_power_of_two() && w <= 16 {
                Ok(w)
            } else {
                Err(PbioError::BadWireData(format!("machine tag {tag:#010x}: {what} {w}")))
            }
        };
        if tag & !USED != 0 {
            return Err(PbioError::BadWireData(format!(
                "machine tag {tag:#010x} sets unused bits"
            )));
        }
        Ok(MachineModel {
            byte_order: if tag & 1 == 1 { ByteOrder::Big } else { ByteOrder::Little },
            pointer_size: width(4, "pointer size")?,
            long_size: width(12, "long size")?,
            max_align: width(20, "max align")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_is_consistent_with_cfg() {
        let m = MachineModel::native();
        assert_eq!(m.pointer_size, std::mem::size_of::<usize>());
        assert_eq!(m.byte_order, ByteOrder::native());
    }

    #[test]
    fn sparc32_matches_paper_conventions() {
        let m = MachineModel::SPARC32;
        assert_eq!(m.byte_order, ByteOrder::Big);
        assert_eq!(m.pointer_size, 4);
        assert_eq!(m.long_size, 4);
    }

    #[test]
    fn scalar_alignment_capped_by_abi() {
        assert_eq!(MachineModel::X86.scalar_align(8), 4); // i386 double
        assert_eq!(MachineModel::X86_64.scalar_align(8), 8);
        assert_eq!(MachineModel::SPARC32.scalar_align(4), 4);
        assert_eq!(MachineModel::SPARC32.scalar_align(1), 1);
    }

    #[test]
    fn tag_round_trips() {
        for m in [
            MachineModel::SPARC32,
            MachineModel::SPARC64,
            MachineModel::X86,
            MachineModel::X86_64,
            MachineModel::native(),
        ] {
            assert_eq!(MachineModel::from_tag(m.tag()), Ok(m));
        }
    }

    #[test]
    fn distinct_models_have_distinct_tags() {
        let tags = [
            MachineModel::SPARC32.tag(),
            MachineModel::SPARC64.tag(),
            MachineModel::X86.tag(),
            MachineModel::X86_64.tag(),
        ];
        let mut dedup = tags.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tags.len());
    }
}

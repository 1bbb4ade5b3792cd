//! A from-scratch reimplementation of **PBIO** (Portable Binary I/O), the
//! binary communication mechanism (BCM) underneath the HPDC 2001 XMIT
//! system (Eisenhauer & Daley, *Fast heterogeneous binary data
//! interchange*, HCW 2000).
//!
//! PBIO's job, in the paper's decomposition of metadata usage, is
//! **binding** and **marshaling**: applications register message formats
//! described as field lists (`IOField`s — name, type, size, offset) and
//! receive compact *format identifiers*; records are then marshaled to a
//! binary wire format that is the *sender's native layout* plus a format
//! id, with receivers converting only when their native representation
//! differs ("receiver makes right").  Format metadata never travels with
//! messages; it is resolved out of band through a [`registry::FormatRegistry`]
//! or a remote [`server::FormatServer`].
//!
//! # Architecture
//!
//! | module | role |
//! |---|---|
//! | [`machine`] | machine models: byte order, pointer/long sizes, alignment rules |
//! | [`types`] | base types and resolved field kinds (scalars, arrays, strings, nested records) |
//! | [`field`] | `IOField` declarations and the PBIO type-string grammar (`"integer"`, `"float[size]"`) |
//! | [`layout`] | C-ABI struct layout: offsets, padding, record size |
//! | [`format`](mod@crate::format) | immutable format descriptors and content-addressed format ids |
//! | [`registry`] | thread-safe format registration / lookup / deduplication |
//! | [`record`] | `RawRecord`: a native-layout byte buffer with typed field accessors |
//! | [`value`] | dynamic `Value` tree and conversions to/from records |
//! | [`marshal`] | encode to / decode from the wire format; decode runs compiled plans |
//! | [`view`] | `RecordView`: borrowed field access over a same-layout wire buffer |
//! | [`plan`] | compiled encode and convert programs and the executors that run them; a format's encode program is its one slot table, shared by encode, extraction, conversion and views |
//! | [`verify`] | static proof of layouts, plan programs and same-layout claims before they are cached |
//! | [`convert`] | field-at-a-time interpreter: the differential oracle for the compiled plans |
//! | [`codec`] | binary (de)serialization of format descriptors themselves |
//! | [`server`] | TCP format server: register/fetch descriptors by id |
//! | [`file`](mod@crate::file) | self-describing PBIO data files (descriptors interleaved with records) |
//!
//! # Quick example
//!
//! ```
//! use openmeta_pbio::prelude::*;
//!
//! let registry = FormatRegistry::new(MachineModel::native());
//! let format = registry
//!     .register(FormatSpec::new("Point", vec![
//!         IOField::auto("x", "float", 8),
//!         IOField::auto("y", "float", 8),
//!         IOField::auto("label", "string", 0),
//!     ]))
//!     .unwrap();
//!
//! let mut rec = RawRecord::new(format.clone());
//! rec.set_f64("x", 1.5).unwrap();
//! rec.set_f64("y", -2.5).unwrap();
//! rec.set_string("label", "origin-ish").unwrap();
//!
//! let wire = encode(&rec).unwrap();
//! let back = decode(&wire, &registry).unwrap();
//! assert_eq!(back.get_f64("x").unwrap(), 1.5);
//! assert_eq!(back.get_string("label").unwrap(), "origin-ish");
//! ```

#![deny(unsafe_code)]

pub mod codec;
pub mod convert;
pub mod error;
pub mod field;
pub mod file;
pub mod format;
mod kernels;
pub mod layout;
pub mod machine;
pub mod marshal;
pub mod plan;
pub mod pool;
pub mod record;
pub mod registry;
pub mod server;
pub mod types;
pub mod value;
pub mod verify;
pub mod view;

pub use error::PbioError;
pub use field::IOField;
pub use format::{FormatDescriptor, FormatId, FormatSpec};
pub use machine::{ByteOrder, MachineModel};
pub use marshal::{
    convert_wire_into, decode, decode_borrowed, decode_with, encode, encode_into, Decoded,
};
pub use plan::{layouts_match, ConvertPlan, EncodePlan, Encoder, MarshalStats};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use record::RawRecord;
pub use registry::{FormatRegistry, PlanCacheStats};
pub use types::{BaseType, FieldKind};
pub use value::Value;
pub use verify::{Severity, Verdict, Violation};
pub use view::RecordView;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::error::PbioError;
    pub use crate::field::IOField;
    pub use crate::format::{FormatDescriptor, FormatId, FormatSpec};
    pub use crate::machine::{ByteOrder, MachineModel};
    pub use crate::marshal::{decode, decode_with, encode, encode_into};
    pub use crate::plan::Encoder;
    pub use crate::record::RawRecord;
    pub use crate::registry::FormatRegistry;
    pub use crate::types::{BaseType, FieldKind};
    pub use crate::value::Value;
}

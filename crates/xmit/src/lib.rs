//! **XMIT** — the XML Metadata Integration Toolkit of Widener, Eisenhauer
//! & Schwan, *Open Metadata Formats: Efficient XML-Based Communication for
//! High Performance Computing* (HPDC 2001).
//!
//! XMIT separates the three uses of metadata the paper identifies:
//!
//! 1. **Discovery** — message formats are described as XML Schema
//!    `complexType`s and fetched from URLs at run time
//!    ([`Xmit::load_url`]).  Formats live *outside* programs; changing a
//!    format is changing a document on a server, not recompiling.
//! 2. **Binding** — loaded definitions are translated into native BCM
//!    metadata — PBIO format descriptors — and registered, yielding a
//!    [`BindingToken`] ([`Xmit::bind`]).
//! 3. **Marshaling** — records built against a token are encoded by PBIO's
//!    binary marshaler, identical in cost to compiled-in metadata (the
//!    paper's Figure 7).
//!
//! # Quickstart
//!
//! ```
//! use xmit::Xmit;
//! use openmeta_pbio::MachineModel;
//!
//! let toolkit = Xmit::new(MachineModel::native());
//! toolkit.source().put_mem("formats", r#"
//!   <xsd:complexType name="SimpleData"
//!       xmlns:xsd="http://www.w3.org/2001/XMLSchema">
//!     <xsd:element name="timestep" type="xsd:integer" />
//!     <xsd:element name="data" type="xsd:float" minOccurs="0"
//!         maxOccurs="*" dimensionPlacement="before" dimensionName="size" />
//!   </xsd:complexType>"#);
//! toolkit.load_url("mem://formats").unwrap();
//! let token = toolkit.bind("SimpleData").unwrap();
//!
//! let mut rec = token.new_record();
//! rec.set_i64("timestep", 9999).unwrap();
//! rec.set_f64_array("data", &[12.345, 12.345]).unwrap();
//! let wire = xmit::encode(&rec).unwrap();
//! let back = xmit::decode(&wire, toolkit.registry()).unwrap();
//! assert_eq!(back.get_i64("timestep").unwrap(), 9999);
//! ```

#![deny(unsafe_code)]

pub mod codegen;
pub mod error;
pub mod evolution;
pub mod mapping;
pub mod matching;
pub mod messaging;
pub mod negotiate;
pub mod projection;
pub mod toolkit;
pub mod watcher;

pub use error::XmitError;
pub use evolution::{diff_descriptors, diff_types, Compatibility, EvolutionReport, FieldChange};
pub use mapping::{map_document, map_type};
pub use matching::{best_match, match_message, MatchReport};
pub use messaging::{XmitReceiver, XmitSender};
pub use negotiate::{
    classify, Accept, AcceptEntry, Hello, NegotiateReply, NegotiationCache, NegotiationStats,
    PairVerdict, VersionOffer,
};
pub use projection::{project_type, Projection};
pub use toolkit::{BindingToken, LoadOutcome, SchemaCacheStats, Xmit};
pub use watcher::{FormatChange, FormatWatcher};

// Re-exports so applications only need the `xmit` crate.
pub use openmeta_ohttp::{DocumentSource, HttpServer, StandardSource, Url};
pub use openmeta_pbio::{
    decode, decode_borrowed, decode_with, encode, encode_into, Decoded, Encoder, FormatDescriptor,
    FormatId, FormatRegistry, FormatSpec, IOField, MachineModel, MarshalStats, RawRecord,
    RecordView, Value,
};
pub use openmeta_schema::{ComplexType, SchemaDocument};

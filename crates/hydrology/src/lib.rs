//! The **Hydrology** application of §4.5 — "a component-based
//! visualization system for hydrology data" originally demonstrated by
//! NCSA researchers, reproduced here as the paper used it: a pipeline of
//! distributed components sharing message formats discovered through
//! XMIT at run time.
//!
//! Architecture (Figure 5):
//!
//! ```text
//! data file → presend → flow2d → coupler → Vis5D/GUI
//!                                       ↘ Vis5D/GUI
//!      (dashed feedback/control channels flow the other way)
//! ```
//!
//! * [`messages`] — the shared message formats (Figure 4's `JoinRequest`
//!   and `SimpleData`, plus the flow-field and control formats), as XML
//!   Schema documents suitable for hosting on an HTTP server.
//! * [`dataset`] — a synthetic 2-D shallow-water flow generator standing
//!   in for the original data files (see DESIGN.md, substitutions).
//! * [`components`] — the five component implementations.
//! * [`pipeline`] — wiring: each component in its own thread, data plane
//!   over TCP with [`xmit::XmitSender`]/[`xmit::XmitReceiver`], control
//!   plane over `std::sync::mpsc` channels.

#![deny(unsafe_code)]

pub mod components;
pub mod dataset;
pub mod messages;
pub mod pipeline;

pub use dataset::{read_dataset_file, write_dataset_file, FlowDataset, FlowFrame};
pub use messages::{hydrology_schema_xml, publish_formats, HYDROLOGY_TYPES};
pub use pipeline::{Pipeline, PipelineConfig, PipelineReport, SinkStats};

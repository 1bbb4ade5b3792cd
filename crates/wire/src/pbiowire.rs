//! PBIO as a `WireFormat` — the system under test in Figure 8.

use std::sync::Arc;

use openmeta_obs::sync::{self, Mutex};
use openmeta_pbio::{decode_with, Encoder, FormatDescriptor, FormatRegistry, RawRecord};

use crate::error::WireError;
use crate::traits::WireFormat;

/// Adapter exposing PBIO's marshaler through the comparator interface.
pub struct PbioWire {
    registry: Arc<FormatRegistry>,
    /// Cached encode plans (the `WireFormat` trait takes `&self`, so the
    /// reusable encoder sits behind a mutex).
    encoder: Mutex<Encoder>,
}

impl PbioWire {
    /// The registry used to resolve format ids during decode.
    pub fn new(registry: Arc<FormatRegistry>) -> Self {
        PbioWire { registry, encoder: Mutex::new(Encoder::new()) }
    }
}

impl WireFormat for PbioWire {
    fn name(&self) -> &'static str {
        "pbio"
    }

    fn encode(&self, rec: &RawRecord, out: &mut Vec<u8>) -> Result<usize, WireError> {
        let mut enc = sync::lock(&self.encoder);
        Ok(enc.encode_into(rec, out)?)
    }

    fn decode(&self, bytes: &[u8], format: &Arc<FormatDescriptor>) -> Result<RawRecord, WireError> {
        // The sender's descriptor must be resolvable; register it if the
        // caller's registry has never seen this format id.
        self.registry.register_descriptor((**format).clone());
        Ok(decode_with(bytes, &self.registry, format)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_pbio::{FormatSpec, IOField, MachineModel};

    #[test]
    fn adapter_round_trips() {
        let reg = Arc::new(FormatRegistry::new(MachineModel::native()));
        let fmt = reg
            .register(FormatSpec::new(
                "T",
                vec![
                    IOField::auto("n", "integer", 4),
                    IOField::auto("xs", "float[n]", 8),
                    IOField::auto("who", "string", 0),
                ],
            ))
            .unwrap();
        let wire = PbioWire::new(reg);
        let mut rec = RawRecord::new(fmt.clone());
        rec.set_f64_array("xs", &[1.0, 2.0]).unwrap();
        rec.set_string("who", "pbio").unwrap();
        let bytes = wire.encode_vec(&rec).unwrap();
        let back = wire.decode(&bytes, &fmt).unwrap();
        assert_eq!(back.get_f64_array("xs").unwrap(), vec![1.0, 2.0]);
        assert_eq!(back.get_string("who").unwrap(), "pbio");
    }
}

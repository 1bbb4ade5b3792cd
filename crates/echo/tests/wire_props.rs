//! Property tests for the echo handshake wire frames: however the byte
//! stream is fragmented, the connection's `LengthFramer` must deliver
//! the same first frame, and SUBSCRIBE / SUB_OK / SUB_ERR must decode to
//! the same decision — the split-invariance the analyzer's exhaustive
//! explorer proves for short streams, checked here over long random
//! ones.

use proptest::prelude::*;

use openmeta_echo::wire::{
    reply_from_frame, subscribe_from_frame, FRAME_SUBSCRIBE, FRAME_SUB_ERR, FRAME_SUB_OK,
};
use openmeta_echo::{HandshakeReply, SubscribeRequest};
use openmeta_net::LengthFramer;
use openmeta_pbio::FormatId;
use xmit::Projection;

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

fn requests() -> impl Strategy<Value = SubscribeRequest> {
    let projection =
        (proptest::collection::vec("[a-z]{0,8}", 0..6), any::<bool>(), "[A-Za-z]{0,6}").prop_map(
            |(keep, narrow_doubles, rename_suffix)| Projection {
                keep,
                narrow_doubles,
                rename_suffix,
            },
        );
    (any::<u64>(), any::<bool>(), projection, any::<bool>()).prop_map(
        |(id, full_fat, projection, versioned)| SubscribeRequest {
            channel: FormatId(id),
            projection: if full_fat { None } else { Some(projection) },
            version: if versioned { Some(version_desc()) } else { None },
        },
    )
}

fn version_desc() -> openmeta_pbio::FormatDescriptor {
    use openmeta_pbio::{FormatRegistry, FormatSpec, IOField, MachineModel};
    let reg = FormatRegistry::new(MachineModel::native());
    (*reg.register(FormatSpec::new("V", vec![IOField::auto("x", "integer", 4)])).unwrap()).clone()
}

/// Feed `wire` to a fresh framer in fragments cut at `splits`
/// (positions taken modulo the remaining length), stopping at the first
/// complete frame as a blocking handshake does.  Returns that frame and
/// the framer, which still holds whatever arrived behind it.
fn first_frame(wire: &[u8], splits: &[usize]) -> (Option<(u8, Vec<u8>)>, LengthFramer) {
    let mut framer = LengthFramer::with_kind_byte(64 << 20);
    let mut rest = wire;
    for s in splits {
        if rest.is_empty() {
            break;
        }
        let n = 1 + (s % rest.len());
        framer.push(&rest[..n]);
        rest = &rest[n..];
        if let Some(frame) = framer.next_frame().expect("frame within the cap") {
            framer.push(rest);
            return (Some(frame), framer);
        }
    }
    framer.push(rest);
    (framer.next_frame().expect("frame within the cap"), framer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn subscribe_decodes_identically_under_random_splits(
        req in requests(),
        splits in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let wire = frame(FRAME_SUBSCRIBE, &req.encode());
        let (got, framer) = first_frame(&wire, &splits);
        let (kind, payload) = got.expect("whole frame");
        prop_assert_eq!(subscribe_from_frame(kind, &payload).expect("valid subscribe frame"), req);
        prop_assert!(framer.is_empty());
    }

    #[test]
    fn sub_ok_and_trailing_delivery_bytes_survive_random_splits(
        id in any::<u64>(),
        delivery in proptest::collection::vec(any::<u8>(), 0..128),
        splits in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        // Delivery frames queued behind SUB_OK must stay buffered for
        // the receive loop, not be lost or treated as an error.
        let mut wire = frame(FRAME_SUB_OK, &id.to_be_bytes());
        wire.extend_from_slice(&frame(2, &delivery));
        let (got, mut framer) = first_frame(&wire, &splits);
        let (kind, payload) = got.expect("whole frame");
        prop_assert_eq!(
            reply_from_frame(kind, &payload).expect("valid SUB_OK frame"),
            HandshakeReply::Accepted(FormatId(id))
        );
        // Whatever arrived behind the reply is handed over intact.
        let trailing = framer.next_frame().expect("valid delivery frame");
        prop_assert_eq!(trailing, Some((2u8, delivery)));
        prop_assert!(framer.is_empty());
    }

    #[test]
    fn sub_err_message_is_split_invariant(
        msg in proptest::collection::vec(any::<u8>(), 0..96),
        splits in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let wire = frame(FRAME_SUB_ERR, &msg);
        let (got, _) = first_frame(&wire, &splits);
        let (kind, payload) = got.expect("whole frame");
        let want = String::from_utf8_lossy(&msg).into_owned();
        prop_assert_eq!(
            reply_from_frame(kind, &payload).expect("valid SUB_ERR frame"),
            HandshakeReply::Rejected(want)
        );
    }

    #[test]
    fn byte_at_a_time_equals_one_push(req in requests()) {
        let wire = frame(FRAME_SUBSCRIBE, &req.encode());
        let (whole, _) = first_frame(&wire, &[]);
        let (trickle, _) = first_frame(&wire, &vec![0; wire.len()]);
        prop_assert_eq!(&trickle, &whole);
        let (kind, payload) = trickle.expect("whole frame");
        prop_assert_eq!(subscribe_from_frame(kind, &payload).expect("valid frame"), req);
    }

    #[test]
    fn wrong_kind_frame_is_rejected_under_every_split(
        kind in 6u8..255u8,
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        splits in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let wire = frame(kind, &payload);
        let (got, _) = first_frame(&wire, &splits);
        let (kind, payload) = got.expect("whole frame");
        prop_assert!(
            subscribe_from_frame(kind, &payload).is_err(),
            "non-SUBSCRIBE frame must end the handshake"
        );
        prop_assert!(reply_from_frame(kind, &payload).is_err(), "not a reply either");
    }

    #[test]
    fn malformed_sub_ok_is_rejected_under_every_split(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        splits in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let mut payload = payload;
        if payload.len() == 8 {
            payload.push(0);
        }
        let wire = frame(FRAME_SUB_OK, &payload);
        let (got, _) = first_frame(&wire, &splits);
        let (kind, payload) = got.expect("whole frame");
        prop_assert!(reply_from_frame(kind, &payload).is_err(), "SUB_OK carries exactly 8 bytes");
    }
}

//! Property-based tests of the wire message model.

use ecq_proto::{FieldKind, Message, WireField};
use proptest::prelude::*;

const ALL_KINDS: [FieldKind; 11] = [
    FieldKind::Id,
    FieldKind::Nonce,
    FieldKind::Cert,
    FieldKind::Signature,
    FieldKind::EphemeralPoint,
    FieldKind::Response,
    FieldKind::Mac,
    FieldKind::Hello,
    FieldKind::Ack,
    FieldKind::Fin,
    FieldKind::Finish,
];

fn arb_layout() -> impl Strategy<Value = Vec<FieldKind>> {
    proptest::collection::vec(0usize..ALL_KINDS.len(), 1..6)
        .prop_map(|idxs| idxs.into_iter().map(|i| ALL_KINDS[i]).collect())
}

fn message_for(layout: &[FieldKind], fill: u8) -> Message {
    Message::new(
        "T1",
        layout
            .iter()
            .enumerate()
            .map(|(i, k)| WireField::new(*k, vec![fill.wrapping_add(i as u8); k.wire_len()]))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_roundtrips_any_layout(layout in arb_layout(), fill in any::<u8>()) {
        let msg = message_for(&layout, fill);
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        let decoded = Message::decode("T1", &layout, &bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn wire_len_is_sum_of_field_lens(layout in arb_layout()) {
        let msg = message_for(&layout, 0);
        let expect: usize = layout.iter().map(|k| k.wire_len()).sum();
        prop_assert_eq!(msg.wire_len(), expect);
    }

    #[test]
    fn decode_rejects_any_length_perturbation(layout in arb_layout(), delta in 1usize..16) {
        let msg = message_for(&layout, 1);
        let mut bytes = msg.encode();
        // Longer input must be rejected.
        bytes.extend(std::iter::repeat_n(0u8, delta));
        prop_assert!(Message::decode("T1", &layout, &bytes).is_err());
        // Shorter input must be rejected (when possible).
        let msg_bytes = msg.encode();
        if msg_bytes.len() > delta {
            prop_assert!(
                Message::decode("T1", &layout, &msg_bytes[..msg_bytes.len() - delta]).is_err()
            );
        }
    }

    #[test]
    fn field_lookup_finds_every_occurrence(layout in arb_layout()) {
        let msg = message_for(&layout, 3);
        for kind in ALL_KINDS {
            let expected = layout.iter().filter(|k| **k == kind).count();
            let found: Vec<&[u8]> = msg
                .fields
                .iter()
                .filter(|f| f.kind == kind)
                .map(|f| f.bytes.as_slice())
                .collect();
            prop_assert_eq!(found.len(), expected);
            // `field` finds the first occurrence.
            prop_assert_eq!(msg.field(kind).ok(), found.first().copied());
        }
    }

    #[test]
    fn describe_lists_every_field_in_order(layout in arb_layout()) {
        let msg = message_for(&layout, 9);
        let desc = msg.describe_fields();
        let parts: Vec<&str> = desc.split(", ").collect();
        prop_assert_eq!(parts.len(), layout.len());
        for (part, kind) in parts.iter().zip(layout.iter()) {
            prop_assert!(part.starts_with(kind.label()), "{} vs {}", part, kind.label());
        }
    }
}

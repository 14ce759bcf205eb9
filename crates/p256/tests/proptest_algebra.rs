//! Property-based tests of the arithmetic layers: U256, field and
//! scalar ring laws over random operands.

use ecq_p256::field::FieldElement;
use ecq_p256::scalar::Scalar;
use ecq_p256::u256::U256;
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u8; 32]>().prop_map(|b| U256::from_be_bytes(&b))
}

fn arb_fe() -> impl Strategy<Value = FieldElement> {
    arb_u256().prop_map(|v| FieldElement::from_reduced(&v))
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    arb_u256().prop_map(|v| Scalar::from_reduced(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u256_roundtrip(bytes in any::<[u8; 32]>()) {
        let v = U256::from_be_bytes(&bytes);
        prop_assert_eq!(v.to_be_bytes(), bytes);
    }

    #[test]
    fn u256_add_sub_inverse(a in arb_u256(), b in arb_u256()) {
        let (sum, _) = a.adc(&b);
        let (back, _) = sum.sbb(&b);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn u256_shl_shr(a in arb_u256()) {
        // Doubling (a >> 1) clears only the lowest bit.
        let half = a.shr1();
        let (doubled, carry) = half.adc(&half);
        prop_assert!(!carry);
        let mut expect = a.to_be_bytes();
        expect[31] &= 0xFE;
        prop_assert_eq!(doubled.to_be_bytes(), expect);
    }

    #[test]
    fn field_add_commutes_and_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn field_mul_commutes_and_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn field_distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn field_inverse_law(a in arb_fe()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), FieldElement::one());
    }

    #[test]
    fn field_sqrt_consistent(a in arb_fe()) {
        let sq = a.square();
        let root = sq.sqrt().expect("squares always have roots");
        prop_assert!(root == a || root == a.neg());
    }

    #[test]
    fn field_neg_is_additive_inverse(a in arb_fe()) {
        prop_assert_eq!(a.add(&a.neg()), FieldElement::zero());
    }

    #[test]
    fn scalar_ring_laws(a in arb_scalar(), b in arb_scalar()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn scalar_inverse_law(a in arb_scalar()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Scalar::one());
    }

    #[test]
    fn scalar_bytes_roundtrip(a in arb_scalar()) {
        let bytes = a.to_be_bytes();
        prop_assert_eq!(Scalar::from_be_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn scalar_high_exclusive_with_neg(a in arb_scalar()) {
        prop_assume!(!a.is_zero());
        // Exactly one of a and −a is in the high half.
        prop_assert!(a.is_high() != a.neg().is_high());
    }
}

//! A sharded pool of certificate authorities.
//!
//! One CA gateway serializes every enrollment in the fleet; the paper's
//! architecture (Fig. 1) has no objection to several gateways, each
//! owning a disjoint population of devices. [`CaPool`] models exactly
//! that: `shard_count` independent CAs, with devices routed to a shard
//! by a stable hash of their identity, so enrollment throughput scales
//! with the number of gateways while every assignment stays a pure
//! function of the device id.
//!
//! Devices provisioned by different shards hold certificates from
//! different roots and (correctly) fail STS authentication against each
//! other, so the fleet coordinator pairs sessions *within* a shard —
//! each shard is one trust domain, like one vehicle or one charging
//! site. Cross-shard trust needs CA cross-signing (a ROADMAP item).

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;

/// A fixed set of independent certificate authorities.
pub struct CaPool {
    shards: Vec<CertificateAuthority>,
}

impl CaPool {
    /// Creates `shard_count` CAs (at least one), keyed from `rng` in
    /// shard order, named `ca-00`, `ca-01`, ….
    pub fn new(shard_count: usize, rng: &mut HmacDrbg) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|i| CertificateAuthority::new(DeviceId::from_label(&format!("ca-{i:02}")), rng))
            .collect();
        CaPool { shards }
    }

    /// Number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The CAs, in shard order: shard `i` is `shards()[i]`.
    pub fn shards(&self) -> &[CertificateAuthority] {
        &self.shards
    }

    /// The shard serving `id`: FNV-1a over the identity bytes, reduced
    /// mod the shard count. Stable across runs and processes.
    pub fn shard_for(&self, id: &DeviceId) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in id.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_have_distinct_roots() {
        let mut rng = HmacDrbg::from_seed(90);
        let pool = CaPool::new(4, &mut rng);
        assert_eq!(pool.shard_count(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(pool.shards()[i].public_key(), pool.shards()[j].public_key());
            }
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let mut rng = HmacDrbg::from_seed(91);
        let pool = CaPool::new(5, &mut rng);
        for i in 0..200 {
            let id = DeviceId::from_label(&format!("dev-{i:05}"));
            let s = pool.shard_for(&id);
            assert!(s < 5);
            assert_eq!(s, pool.shard_for(&id));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut rng = HmacDrbg::from_seed(92);
        let pool = CaPool::new(0, &mut rng);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.shard_for(&DeviceId::from_label("x")), 0);
    }

    #[test]
    fn routing_spreads_load() {
        let mut rng = HmacDrbg::from_seed(93);
        let pool = CaPool::new(4, &mut rng);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[pool.shard_for(&DeviceId::from_label(&format!("dev-{i:05}")))] += 1;
        }
        // FNV over distinct labels should not starve any shard.
        assert!(counts.iter().all(|&c| c > 100), "{counts:?}");
    }
}

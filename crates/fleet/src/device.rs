//! The simulated device roster.

use ecq_cert::DeviceId;
use ecq_devices::DevicePreset;
use ecq_proto::Credentials;

/// One simulated BMS device in the fleet.
#[derive(Clone, Debug)]
pub struct SimDevice {
    /// Position in the fleet roster (stable across a run).
    pub index: usize,
    /// The device identity (`dev-00042` style labels).
    pub id: DeviceId,
    /// The evaluation-board cost model this device simulates.
    pub preset: DevicePreset,
    /// The CA shard that provisions this device.
    pub shard: usize,
    /// Long-term credentials, present once enrollment completed.
    /// Boxed: a million-entry roster should cost one pointer per
    /// un-enrolled device, not an inline credential blob — streaming
    /// sweeps never materialize credentials on the roster at all.
    pub credentials: Option<Box<Credentials>>,
}

impl SimDevice {
    /// Builds the roster entry for fleet position `index`: label
    /// `dev-{index:05}`, preset round-robin over the paper's four
    /// boards. The shard is filled in by the coordinator's router.
    pub fn new(index: usize, shard: usize) -> Self {
        SimDevice {
            index,
            id: Self::id_for(index),
            preset: DevicePreset::ALL[index % DevicePreset::ALL.len()],
            shard,
            credentials: None,
        }
    }

    /// The identity label used for fleet position `index`.
    pub fn id_for(index: usize) -> DeviceId {
        DeviceId::from_label(&format!("dev-{index:05}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_entries_are_stable() {
        let d = SimDevice::new(42, 3);
        assert_eq!(d.id, DeviceId::from_label("dev-00042"));
        assert_eq!(d.preset, DevicePreset::Stm32F767); // 42 % 4 == 2
        assert_eq!(d.shard, 3);
        assert!(d.credentials.is_none());
    }

    #[test]
    fn presets_cycle_over_the_four_boards() {
        let presets: Vec<_> = (0..8).map(|i| SimDevice::new(i, 0).preset).collect();
        assert_eq!(&presets[..4], &DevicePreset::ALL);
        assert_eq!(&presets[4..], &DevicePreset::ALL);
    }
}

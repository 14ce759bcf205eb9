//! Compares all seven protocol variants across the paper's four
//! embedded boards: the programmatic version of Tables I–II.
//!
//! ```sh
//! cargo run --example protocol_comparison
//! ```

use dynamic_ecqv::baselines;
use dynamic_ecqv::devices::timing::protocol_pair_time;
use dynamic_ecqv::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = HmacDrbg::from_seed(31337);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let alice = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 3600, &mut rng)?;
    let bob = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 3600, &mut rng)?;

    println!(
        "{:<16}{:>8}{:>8}   simulated pair time per device (ms)",
        "protocol", "steps", "bytes"
    );
    println!("{}", "-".repeat(100));

    for kind in ProtocolKind::ALL {
        let transcript = baselines::establish(kind, &alice, &bob, 0, &mut rng)?.transcript;
        print!(
            "{:<16}{:>8}{:>8}   ",
            kind.label(),
            transcript.step_count(),
            transcript.total_bytes()
        );
        for preset in DevicePreset::ALL {
            let device = preset.profile();
            let ms = protocol_pair_time(kind, &transcript, &device, &device);
            print!("{:>11.1}", ms);
        }
        println!();
    }
    println!(
        "\ncolumns: {}",
        DevicePreset::ALL
            .iter()
            .map(|p| p.profile().name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("(STS opt. rows transmit the same bytes; only the schedule differs — §V-B)");
    Ok(())
}

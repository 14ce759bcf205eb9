//! Regenerates the paper's Table II: communication steps and
//! transmission overhead of the KD protocols, from real transcripts.

use ecq_baselines::establish;
use ecq_bench::deployment;
use ecq_proto::ProtocolKind;

fn paper_total(kind: ProtocolKind) -> usize {
    match kind {
        ProtocolKind::SEcdsa => 427,
        ProtocolKind::SEcdsaExt => 619,
        ProtocolKind::Sts => 491,
        ProtocolKind::Scianc => 362,
        ProtocolKind::Poramb => 820,
        _ => unreachable!("optimized STS does not change the wire format"),
    }
}

fn main() {
    println!("Table II — communication steps and transmission overhead\n");
    let (alice, bob, mut rng) = deployment(2);
    for kind in ProtocolKind::WIRE_DISTINCT {
        let transcript = establish(kind, &alice, &bob, 0, &mut rng)
            .expect("handshake")
            .transcript;
        println!("── {} ──", kind.label());
        print!("{}", transcript.describe());
        let paper = paper_total(kind);
        let measured = transcript.total_bytes();
        println!(
            "paper: {} B — {}\n",
            paper,
            if measured == paper {
                "exact match".to_string()
            } else {
                format!("MISMATCH (measured {measured})")
            }
        );
    }
    println!("(STS opt. I/II transmit identical data to STS — §V-B of the paper.)");
}

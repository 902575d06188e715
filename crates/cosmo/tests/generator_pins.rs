//! Generator pins: the synthetic universe, bit for bit.
//!
//! A SHA-256 over the `f32` bits of all six Nyx fields and over all six
//! HACC arrays, for two option sets, taken before the generator's loops
//! went parallel. Every value must come out the same on 1, 2 and 4 worker
//! threads: random draws stay in their serial order, every element keeps
//! its expression, and every grid cell sums its contributions in particle
//! order.

use cosmo_data::{generate_hacc, generate_nyx, SynthOptions};
use foresight_util::parallel::with_threads;
use foresight_util::sha256::{to_hex, Sha256};

fn digest(fields: [(&'static str, &[f32]); 6]) -> String {
    let mut h = Sha256::new();
    for (_, data) in fields {
        for v in data {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    to_hex(&h.finalize())
}

/// `(options, Nyx digest, HACC digest)`.
fn pins() -> [(SynthOptions, &'static str, &'static str); 2] {
    [
        (
            SynthOptions { n_side: 32, seed: 7, steps: 3, ..SynthOptions::default() },
            "bc392786cd2d9126984a4709cdec895cad11bbb8c9f76cfe54a78b2ece41e772",
            "01e350dac6ac077c0e1dcdc42b4866fae7a7fccc49600afae8ea609ea770ced8",
        ),
        (
            SynthOptions { n_side: 64, seed: 13, steps: 1, ..SynthOptions::default() },
            "ff6baa91e45f2a7ba70857c60a5ba680af90e4ce104d9de2966b0c51e7bdc9a9",
            "18c7ad71221a41753ac72c9f9554a48a08f014d9acb186c4eb2ff77366aff133",
        ),
    ]
}

#[test]
fn generated_bits_are_pinned_on_1_2_4_threads() {
    for (opts, nyx_pin, hacc_pin) in pins() {
        for threads in [1, 2, 4] {
            let (nyx, hacc) = with_threads(threads, || {
                (generate_nyx(&opts).unwrap(), generate_hacc(&opts).unwrap())
            });
            let (nyx, hacc) = (digest(nyx.fields()), digest(hacc.fields()));
            println!("{opts:?} threads {threads}: nyx {nyx} hacc {hacc}");
            assert_eq!(nyx, nyx_pin, "Nyx fields of {opts:?} on {threads} threads");
            assert_eq!(hacc, hacc_pin, "HACC arrays of {opts:?} on {threads} threads");
        }
    }
}

//! Equivalence tests: the compiled synapse kernels must reproduce the
//! original closure-walk execution path **exactly** — bit-identical
//! activations, spike-identical rasters and identical classifications —
//! on MLP, conv and pool topologies. The reference implementation lives in
//! `resparc_neuro::network::reference`.

use resparc_suite::prelude::*;
use resparc_suite::resparc_neuro::network::reference;

fn mlp_net(seed: u64) -> Network {
    Network::random(Topology::mlp(48, &[32, 24, 10]), seed, 1.0)
}

fn conv_net(seed: u64) -> Network {
    let t = Topology::builder(Shape::new(12, 12, 1))
        .conv(6, 5, Padding::Valid, ChannelTable::Full)
        .pool(2)
        .conv(8, 3, Padding::Same, ChannelTable::Banded { fan: 2 })
        .pool(2)
        .dense(10)
        .build()
        .expect("consistent CNN topology");
    Network::random(t, seed, 1.2)
}

fn pool_net() -> Network {
    // A single AvgPool layer: the degenerate all-sparse, shared-weight
    // case.
    let t = Topology::new(
        64,
        vec![LayerSpec::AvgPool {
            input: Shape::new(8, 8, 1),
            window: 2,
        }],
    )
    .expect("consistent pool topology");
    Network::random(t, 0, 1.0)
}

fn stimulus(n: usize, phase: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * 7 + phase) % 11) as f32 / 11.0)
        .collect()
}

/// Forward activations must agree bit-for-bit, layer by layer.
fn assert_forward_identical(net: &Network, input: &[f32]) {
    let compiled = net.forward_analog_all(input);
    let reference = reference::forward_analog_all(net, input);
    assert_eq!(compiled.len(), reference.len());
    for (li, (c, r)) in compiled.iter().zip(&reference).enumerate() {
        assert_eq!(c, r, "layer {li} activations diverge");
    }
    assert_eq!(
        net.forward_analog(input),
        *reference.last().expect("layers")
    );
    assert_eq!(
        net.classify_analog(input),
        reference::classify_analog(net, input)
    );
}

/// Spiking runs must agree spike-for-spike at every step and produce the
/// same statistics.
fn assert_spiking_identical(net: &Network, raster: &SpikeRaster) {
    let mut compiled = net.spiking();
    let mut reference = reference::RefSnnRunner::new(net);
    for (t, step) in raster.iter().enumerate() {
        let c = compiled.step(step).clone();
        let r = reference.step(step);
        assert_eq!(&c, r, "output spikes diverge at step {t}");
    }
    assert_eq!(compiled.outcome(), reference.outcome());
}

#[test]
fn mlp_forward_matches_reference() {
    for seed in [1u64, 2, 3] {
        let net = mlp_net(seed);
        for phase in 0..4 {
            assert_forward_identical(&net, &stimulus(48, phase));
        }
    }
}

#[test]
fn conv_forward_matches_reference() {
    for seed in [4u64, 5] {
        let net = conv_net(seed);
        for phase in 0..3 {
            assert_forward_identical(&net, &stimulus(144, phase));
        }
    }
}

#[test]
fn pool_forward_matches_reference() {
    let net = pool_net();
    assert_forward_identical(&net, &stimulus(64, 1));
}

#[test]
fn mlp_spiking_matches_reference() {
    let net = mlp_net(11);
    let enc = RegularEncoder::new(1.0);
    let raster = enc.encode(&stimulus(48, 2), 50);
    assert_spiking_identical(&net, &raster);
}

#[test]
fn conv_spiking_matches_reference() {
    let net = conv_net(12);
    let mut enc = PoissonEncoder::new(0.5, 9);
    let raster = enc.encode(&stimulus(144, 1), 25);
    assert_spiking_identical(&net, &raster);
}

#[test]
fn pool_spiking_matches_reference() {
    let net = pool_net();
    let mut enc = PoissonEncoder::new(0.8, 3);
    let raster = enc.encode(&stimulus(64, 0), 20);
    assert_spiking_identical(&net, &raster);
}

#[test]
fn equivalence_survives_normalisation_and_quantization() {
    // The conversion pipeline mutates weights through `layers_mut`, which
    // must invalidate the kernel cache — stale kernels would diverge from
    // the reference here.
    let mut net = conv_net(21);
    assert_forward_identical(&net, &stimulus(144, 0));
    let calib: Vec<Vec<f32>> = (0..8).map(|p| stimulus(144, p)).collect();
    normalize_for_snn(&mut net, &calib, 0.99);
    assert_forward_identical(&net, &stimulus(144, 0));
    let (qnet, _) = quantize_network(&net, Precision::paper_default());
    assert_forward_identical(&qnet, &stimulus(144, 0));
    let enc = RegularEncoder::new(0.9);
    let raster = enc.encode(&stimulus(144, 2), 30);
    assert_spiking_identical(&qnet, &raster);
}

#[test]
fn batched_sweep_matches_reference_loop() {
    let net = mlp_net(31);
    let rate = RegularEncoder::new(0.8);
    // TTFS with a silent tail: most layer-steps see no input spike.
    let ttfs = TtfsEncoder::with_window(8);
    let rasters: Vec<SpikeRaster> = (0..12)
        .map(|p| rate.encode(&stimulus(48, p), 20))
        .chain((0..12).map(|p| ttfs.encode(&stimulus(48, p), 20)))
        .collect();
    let batched = net.spiking_batch(&rasters);
    for (k, raster) in rasters.iter().enumerate() {
        let mut reference = reference::RefSnnRunner::new(&net);
        assert_eq!(batched[k], reference.run(raster), "stimulus {k}");
    }
}

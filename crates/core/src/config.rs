//! RESPARC configuration: the micro-architectural parameters of Fig. 8
//! and the RESPARC-32/64/128 presets of Fig. 12.

use resparc_device::memristor::MemristorSpec;
use resparc_energy::components::{ComponentCatalog, ReportedMetrics};
use resparc_energy::units::Frequency;

/// Complete parameterisation of a RESPARC core.
///
/// Defaults follow the paper's Fig. 8: 64-bit architecture, 4×4 NeuroCells
/// (16 mPEs, 9 switches), 4 MCAs per mPE, 200 MHz at IBM 45 nm, and the
/// §4.2 device (20 kΩ–200 kΩ, 16 levels).
#[derive(Debug, Clone, PartialEq)]
pub struct ResparcConfig {
    /// Crossbar edge length (rows = columns); the paper evaluates 32, 64
    /// and 128.
    pub mca_size: usize,
    /// Conductance levels per device (16 = 4-bit weights).
    pub mca_levels: u32,
    /// MCAs per macro Processing Engine.
    pub mcas_per_mpe: usize,
    /// NeuroCell edge in mPEs (4 ⇒ 16 mPEs, 3×3 switches).
    pub nc_dim: usize,
    /// Spike-packet width in bits (the "64-bit architecture").
    pub packet_bits: u32,
    /// Core clock.
    pub frequency: Frequency,
    /// Memristive device technology.
    pub device: MemristorSpec,
    /// Digital-periphery energy catalog.
    pub catalog: ComponentCatalog,
    /// Enable the zero-check event-driven optimisations (§3.2).
    pub event_driven: bool,
    /// Input-memory SRAM capacity in bytes.
    pub input_sram_bytes: usize,
    /// Timesteps per classification (rate-coded inference window).
    pub timesteps: u32,
    /// Physical NeuroCells on the chip. Networks mapping to more NCs
    /// time-multiplex the fabric, serialising each timestep by
    /// `ceil(ncs_used / physical_ncs)` — the structural reason CNNs
    /// (which overflow the core) see smaller speedups than MLPs (which
    /// fit) in the paper's Fig. 11. The default of 16 fits the largest
    /// MLP benchmark exactly.
    pub physical_ncs: usize,
}

impl ResparcConfig {
    /// RESPARC-N preset: the Fig. 8 machine with `mca_size`-sized
    /// crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `mca_size` is zero.
    pub fn with_mca_size(mca_size: usize) -> Self {
        assert!(mca_size > 0, "MCA size must be non-zero");
        Self {
            mca_size,
            mca_levels: 16,
            mcas_per_mpe: 4,
            nc_dim: 4,
            packet_bits: 64,
            frequency: Frequency::from_megahertz(200.0),
            device: MemristorSpec::paper_default(),
            catalog: ComponentCatalog::ibm45(),
            event_driven: true,
            input_sram_bytes: 64 * 1024,
            timesteps: 100,
            physical_ncs: 16,
        }
    }

    /// The paper's default machine: RESPARC-64.
    pub fn resparc_64() -> Self {
        Self::with_mca_size(64)
    }

    /// RESPARC-32 (Fig. 12/13 sweep point).
    pub fn resparc_32() -> Self {
        Self::with_mca_size(32)
    }

    /// RESPARC-128 (Fig. 12/13 sweep point).
    pub fn resparc_128() -> Self {
        Self::with_mca_size(128)
    }

    /// Returns a copy with event-driven optimisations switched on/off
    /// (the Fig. 13 comparison).
    pub fn with_event_driven(mut self, enabled: bool) -> Self {
        self.event_driven = enabled;
        self
    }

    /// Returns a copy with a different timestep budget.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps` is zero.
    pub fn with_timesteps(mut self, timesteps: u32) -> Self {
        assert!(timesteps > 0, "need at least one timestep");
        self.timesteps = timesteps;
        self
    }

    /// mPEs per NeuroCell (`nc_dim²`, 16 in the paper).
    pub fn mpes_per_nc(&self) -> usize {
        self.nc_dim * self.nc_dim
    }

    /// Programmable switches per NeuroCell (`(nc_dim-1)²`, 9 in the
    /// paper).
    pub fn switches_per_nc(&self) -> usize {
        (self.nc_dim - 1) * (self.nc_dim - 1)
    }

    /// MCAs per NeuroCell.
    pub fn mcas_per_nc(&self) -> usize {
        self.mpes_per_nc() * self.mcas_per_mpe
    }

    /// Synapse capacity of one MCA.
    pub fn mca_capacity(&self) -> usize {
        self.mca_size * self.mca_size
    }

    /// The paper's published implementation metrics for one NeuroCell
    /// (Fig. 8).
    pub fn reported_metrics(&self) -> ReportedMetrics {
        ReportedMetrics::resparc_neurocell()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.mca_size == 0 {
            return Err("MCA size must be non-zero".into());
        }
        if self.mcas_per_mpe == 0 {
            return Err("need at least one MCA per mPE".into());
        }
        if self.nc_dim < 2 {
            return Err("NeuroCell dimension must be at least 2".into());
        }
        if self.packet_bits == 0 || self.packet_bits > 512 {
            return Err(format!("packet width {} out of range", self.packet_bits));
        }
        if self.timesteps == 0 {
            return Err("need at least one timestep".into());
        }
        if self.physical_ncs == 0 {
            return Err("need at least one physical NeuroCell".into());
        }
        self.device.validate()
    }
}

impl Default for ResparcConfig {
    fn default() -> Self {
        Self::resparc_64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_parameters() {
        let cfg = ResparcConfig::resparc_64();
        assert_eq!(cfg.mca_size, 64);
        assert_eq!(cfg.mcas_per_mpe, 4);
        assert_eq!(cfg.mpes_per_nc(), 16);
        assert_eq!(cfg.switches_per_nc(), 9);
        assert_eq!(cfg.packet_bits, 64);
        assert!((cfg.frequency.megahertz() - 200.0).abs() < 1e-12);
        cfg.validate().unwrap();
    }

    #[test]
    fn capacities() {
        let cfg = ResparcConfig::resparc_64();
        assert_eq!(cfg.mca_capacity(), 4096);
        assert_eq!(cfg.mcas_per_nc(), 64);
        assert_eq!(cfg.mcas_per_nc() * cfg.mca_capacity(), 262_144);
    }

    #[test]
    fn presets_differ_only_in_size() {
        let a = ResparcConfig::resparc_32();
        let b = ResparcConfig::resparc_128();
        assert_eq!(a.mca_size, 32);
        assert_eq!(b.mca_size, 128);
        assert_eq!(a.nc_dim, b.nc_dim);
    }

    #[test]
    fn builders_apply() {
        let cfg = ResparcConfig::resparc_64()
            .with_event_driven(false)
            .with_timesteps(10);
        assert!(!cfg.event_driven);
        assert_eq!(cfg.timesteps, 10);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ResparcConfig::resparc_64();
        cfg.nc_dim = 1;
        assert!(cfg.validate().is_err());
        let mut cfg2 = ResparcConfig::resparc_64();
        cfg2.packet_bits = 0;
        assert!(cfg2.validate().is_err());
    }
}

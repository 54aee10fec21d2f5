//! The observers every simulator layer's run accepts.

use pim_trace::{NullSink, TraceSink};
use rm_core::{NullProbe, Probe};

/// A trace sink and an attribution probe, attached to one run.
///
/// Every layer (engine, device, platform, cluster, runtime) takes one
/// `&Instruments` instead of separate traced/profiled entry points.
/// Instruments only observe: the priced report is byte-identical for every
/// sink/probe combination, and a sink-and-probe run emits exactly the spans
/// of a sink-only run and the samples of a probe-only run.
#[derive(Clone, Copy, Debug)]
pub struct Instruments<'a> {
    /// Receives spans and instants describing the run's timeline.
    pub sink: &'a dyn TraceSink,
    /// Receives per-component attribution samples.
    pub probe: &'a dyn Probe,
}

impl<'a> Instruments<'a> {
    /// No observers: a [`NullSink`] and a [`NullProbe`].
    pub const NONE: Instruments<'a> = Instruments {
        sink: &NullSink,
        probe: &NullProbe,
    };
}

impl Default for Instruments<'_> {
    fn default() -> Self {
        Instruments::NONE
    }
}

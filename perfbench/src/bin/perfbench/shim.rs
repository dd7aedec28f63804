//! Timing shims: a `Device` and an `App` that delegate every callback to
//! the real component inside a span of that component's layer. The
//! traced worlds wrap every node and every app in one of these.

use crate::trace::{self, Layer};
use punch_net::{Ctx, Device, IfaceId, Packet};
use punch_transport::{App, Os, SockEvent};

/// A device whose callbacks run inside spans of `layer`.
pub struct DevShim<T> {
    /// The real device.
    pub inner: T,
    layer: Layer,
}

impl<T: Device> DevShim<T> {
    /// Wraps `inner`, charging its callbacks to `layer`.
    pub fn boxed(layer: Layer, inner: T) -> Box<dyn Device> {
        Box::new(DevShim { inner, layer })
    }
}

impl<T: Device> Device for DevShim<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        trace::span(self.layer, || self.inner.on_start(ctx))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        trace::span(self.layer, || self.inner.on_packet(ctx, iface, pkt))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        trace::span(self.layer, || self.inner.on_timer(ctx, token))
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        trace::span(self.layer, || self.inner.on_fault(ctx, fault))
    }
}

/// An app whose callbacks run inside spans of `layer`.
pub struct AppShim<T> {
    /// The real app.
    pub inner: T,
    layer: Layer,
}

impl<T: App> AppShim<T> {
    /// Wraps `inner`, charging its callbacks to `layer`.
    pub fn boxed(layer: Layer, inner: T) -> Box<dyn App> {
        Box::new(AppShim { inner, layer })
    }
}

impl<T: App> App for AppShim<T> {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        trace::span(self.layer, || self.inner.on_start(os))
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        trace::span(self.layer, || self.inner.on_event(os, ev))
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        trace::span(self.layer, || self.inner.on_timer(os, token))
    }

    fn on_fault(&mut self, os: &mut Os<'_, '_>, fault: u64) {
        trace::span(self.layer, || self.inner.on_fault(os, fault))
    }
}

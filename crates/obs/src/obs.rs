//! The observation seam: one cloneable handle per hart, shared by the
//! machine and its PCU, that feeds up to three subscribers — the event
//! ring ([`Obs::RING`]), the profile ([`Obs::PROFILE`]) and the request
//! buffer ([`Obs::REQUESTS`]). The handle carries its enable mask
//! inline, so a subscriber that is off costs one bit test and never
//! borrows a `RefCell` or builds its event. Observers never perturb:
//! nothing here feeds the timing model, the interleaver or a digest.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::{TimedEvent, TraceEvent};
use crate::prof::{Profile, StepSample};
use crate::ring::EventRing;
use crate::trace::{HartEvent, ReqBuf, ReqEvent, TraceId};

/// Storage of every subscriber, shared by the clones of one handle.
#[derive(Debug)]
struct Subscribers {
    ring: RefCell<EventRing>,
    profile: RefCell<Profile>,
    requests: RefCell<ReqBuf>,
}

/// Cheaply-cloneable per-hart observation handle — or nothing.
///
/// Subscribers are added with the `with_*` methods, which return a
/// handle sharing this one's storage with one more mask bit set (and
/// that subscriber's storage reset). Clones made earlier keep their
/// own mask, so install the finished handle everywhere it is needed
/// (`Machine::set_obs` hands the extension its clone).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    mask: u8,
    subs: Option<Rc<Subscribers>>,
}

impl Obs {
    /// Mask bit of the event ring.
    pub const RING: u8 = 1;
    /// Mask bit of the profile.
    pub const PROFILE: u8 = 2;
    /// Mask bit of the request buffer.
    pub const REQUESTS: u8 = 4;

    /// The handle with no subscribers (records nothing).
    pub fn off() -> Obs {
        Obs::default()
    }

    /// This handle plus an event ring of `cap` events.
    pub fn with_ring(&self, cap: usize) -> Obs {
        self.subscribe(Obs::RING, |s| *s.ring.borrow_mut() = EventRing::new(cap))
    }

    /// This handle plus a fresh profile for `hart`.
    pub fn with_profile(&self, hart: usize) -> Obs {
        self.subscribe(Obs::PROFILE, |s| {
            *s.profile.borrow_mut() = Profile::new(hart)
        })
    }

    /// This handle plus an empty request buffer.
    pub fn with_requests(&self) -> Obs {
        self.subscribe(Obs::REQUESTS, |s| {
            *s.requests.borrow_mut() = ReqBuf::default()
        })
    }

    fn subscribe(&self, bit: u8, reset: impl FnOnce(&Subscribers)) -> Obs {
        let subs = self.subs.clone().unwrap_or_else(|| {
            Rc::new(Subscribers {
                ring: RefCell::new(EventRing::new(1)),
                profile: RefCell::new(Profile::new(0)),
                requests: RefCell::new(ReqBuf::default()),
            })
        });
        reset(&subs);
        Obs {
            mask: self.mask | bit,
            subs: Some(subs),
        }
    }

    /// The subscriber storage, when `bit` is on.
    #[inline]
    fn sub(&self, bit: u8) -> Option<&Subscribers> {
        if self.mask & bit == 0 {
            return None;
        }
        self.subs.as_deref()
    }

    /// Whether any subscriber is on.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.mask != 0
    }

    /// Whether every subscriber in `bits` is on.
    #[inline]
    pub fn has(&self, bits: u8) -> bool {
        self.mask & bits == bits
    }

    /// Whether the hart must run every step through the interpreter:
    /// the ring and the profile want one record per committed
    /// instruction, which superblocks do not produce. The request
    /// buffer alone leaves the JIT on, since gates never compile and
    /// denials and deopts surface on the interpreted path.
    #[inline]
    pub fn pins_interpreter(&self) -> bool {
        self.mask & (Obs::RING | Obs::PROFILE) != 0
    }

    /// Record the ring event built by `f`; `f` is not called when the
    /// ring is off.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(s) = self.sub(Obs::RING) {
            s.ring.borrow_mut().record(f());
        }
    }

    /// Tag subsequent ring events with a committed-instruction step.
    #[inline]
    pub fn set_step(&self, step: u64) {
        if let Some(s) = self.sub(Obs::RING) {
            s.ring.borrow_mut().set_step(step);
        }
    }

    /// Clone out the retained ring events, oldest first (empty when
    /// the ring is off).
    pub fn events(&self) -> Vec<TimedEvent> {
        self.sub(Obs::RING)
            .map(|s| s.ring.borrow().snapshot())
            .unwrap_or_default()
    }

    /// Ring events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.sub(Obs::RING).map_or(0, |s| s.ring.borrow().dropped())
    }

    /// Record the profile sample built by `f`; `f` is not called when
    /// the profile is off.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> StepSample) {
        if let Some(s) = self.sub(Obs::PROFILE) {
            s.profile.borrow_mut().record_step(f());
        }
    }

    /// Take the accumulated profile (closing its open span), leaving a
    /// fresh one in place. `None` when the profile is off.
    pub fn take_profile(&self) -> Option<Profile> {
        self.sub(Obs::PROFILE).map(|s| {
            let mut p = s.profile.borrow_mut();
            let hart = p.hart;
            let mut out = std::mem::replace(&mut *p, Profile::new(hart));
            out.finish();
            out
        })
    }

    /// Set the request the hart is serving (0 = idle).
    pub fn set_current(&self, id: TraceId) {
        if let Some(s) = self.sub(Obs::REQUESTS) {
            s.requests.borrow_mut().cur = id;
        }
    }

    /// Record the request event built by `f` at hart-local cycle `t`,
    /// tagged with the current request; `f` is not called when the
    /// request buffer is off.
    #[inline]
    pub fn emit_req(&self, t: u64, f: impl FnOnce() -> ReqEvent) {
        if let Some(s) = self.sub(Obs::REQUESTS) {
            s.requests.borrow_mut().push(t, f());
        }
    }

    /// Drain the buffered request events (oldest first), keeping the
    /// current-request tag.
    pub fn drain_requests(&self) -> Vec<HartEvent> {
        self.sub(Obs::REQUESTS).map_or_else(Vec::new, |s| {
            std::mem::take(&mut s.requests.borrow_mut().buf)
        })
    }

    /// `(emitted, dropped)` lifetime tallies of the request buffer.
    pub fn request_counts(&self) -> (u64, u64) {
        self.sub(Obs::REQUESTS).map_or((0, 0), |s| {
            let b = s.requests.borrow();
            (b.emitted, b.dropped)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::StepClass;

    #[test]
    fn subscribers_share_storage_but_not_masks() {
        let sample = || StepSample {
            domain: 1,
            priv_level: 0,
            cycles: 5,
            class: StepClass::default(),
        };
        let prof = Obs::off().with_profile(0);
        assert!(prof.pins_interpreter());
        prof.record(sample);
        let both = prof.with_requests();
        assert!(both.has(Obs::PROFILE | Obs::REQUESTS));
        assert!(!prof.has(Obs::REQUESTS), "earlier clones keep their mask");
        both.record(sample);
        assert_eq!(prof.take_profile().unwrap().cycles(), 10);
        // The request buffer alone leaves the JIT on and builds no
        // ring or profile record.
        let req = Obs::off().with_requests();
        assert!(req.is_on() && !req.pins_interpreter());
        req.emit(|| unreachable!("ring is off"));
        req.record(|| unreachable!("profile is off"));
    }
}

//! A published message together with its metadata.

use units::Tick;

use crate::{Payload, Topic};

/// A message as delivered to subscribers: payload plus publication metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    seq: u64,
    tick: Tick,
    payload: Payload,
}

impl Envelope {
    /// Creates an envelope. Normally only the [`Bus`](crate::Bus) does this.
    pub fn new(seq: u64, tick: Tick, payload: Payload) -> Self {
        Self { seq, tick, payload }
    }

    /// Monotonically increasing publication sequence number (bus-wide).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Simulation tick at which the message was published.
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// The topic of the payload.
    pub fn topic(&self) -> Topic {
        self.payload.topic()
    }

    /// Borrows the payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Consumes the envelope and returns the payload.
    pub fn into_payload(self) -> Payload {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CarState, GpsLocation};

    #[test]
    fn accessors() {
        let env = Envelope::new(
            7,
            Tick::new(42),
            Payload::GpsLocationExternal(GpsLocation::default()),
        );
        assert_eq!(env.seq(), 7);
        assert_eq!(env.tick(), Tick::new(42));
        assert_eq!(env.topic(), Topic::GpsLocationExternal);
    }

    #[test]
    fn into_payload_preserves_data() {
        let payload = Payload::CarState(CarState::default());
        let env = Envelope::new(0, Tick::ZERO, payload.clone());
        assert_eq!(env.into_payload(), payload);
    }
}

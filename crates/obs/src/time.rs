//! The telemetry time unit.

use std::time::Duration;

/// Clamps a [`Duration`] into u64 microseconds (the unit all telemetry
/// uses; u64 microseconds cover half a million years).
pub fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_us_saturates() {
        assert_eq!(duration_us(Duration::from_micros(123)), 123);
        assert_eq!(duration_us(Duration::MAX), u64::MAX);
    }
}

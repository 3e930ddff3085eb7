//! The time grammar the plan texts share: `faults=` and `arrivals=`
//! both write instants as `Tms` and windows as `FROMms..TOms`. The
//! readers return the user-facing message; each plan wraps it in its
//! own error type.

/// Parses a time in ms; the `ms` suffix is optional on input and
/// canonical on output. `what` names the field in the message.
pub fn parse_ms(what: &str, value: &str) -> Result<f64, String> {
    let digits = value.strip_suffix("ms").unwrap_or(value);
    let x: f64 = digits
        .parse()
        .map_err(|_| format!("{what}: '{value}' is not a time in ms"))?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("{what}: '{value}' must be finite and non-negative"));
    }
    Ok(x)
}

/// Parses a `FROMms..TOms` window whose end comes after its start.
pub fn parse_window(what: &str, value: &str) -> Result<(f64, f64), String> {
    let (a, b) = value
        .split_once("..")
        .ok_or_else(|| format!("{what}: '{value}' is not 'FROMms..TOms'"))?;
    let a = parse_ms(what, a)?;
    let b = parse_ms(what, b)?;
    if b <= a {
        return Err(format!("{what}: end {b}ms must come after start {a}ms"));
    }
    Ok((a, b))
}

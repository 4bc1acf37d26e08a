//! Date parsing and printing for the `Pdate` base type.
//!
//! The paper's runtime delegated to the AT&T AST date library; we implement
//! the needed subset directly: civil-calendar conversion, several concrete
//! on-disk date styles (the CLF style of Figure 2 among them), and `strftime`
//! style output formatting used by the formatting tool (`"%D:%T"` in §5.3.1).
//!
//! A parsed [`PDate`] remembers *which* style it was written in and its UTC
//! offset, so writing the value back reproduces the original bytes.

/// On-disk syntax a date was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DateStyle {
    /// Common Log Format: `15/Oct/1997:18:46:51 -0700`.
    Clf,
    /// ISO 8601 date-time: `1997-10-15T18:46:51` (assumed UTC).
    IsoDateTime,
    /// ISO 8601 date: `1997-10-15` (midnight UTC).
    IsoDate,
    /// US-style date: `10/15/1997` or `10/15/97` (midnight UTC).
    UsSlash,
    /// Seconds since the Unix epoch, in decimal.
    Epoch,
}

/// A point in time with presentation metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PDate {
    /// Seconds since `1970-01-01T00:00:00Z`.
    pub epoch: i64,
    /// Minutes east of UTC in the original text (0 unless the style carries
    /// an offset).
    pub tz_minutes: i32,
    /// The concrete syntax the date was parsed from (used to write it back).
    pub style: DateStyle,
}

pub(crate) const MONTHS: [&str; 12] =
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];

/// Days since the epoch for a civil date (proleptic Gregorian).
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = y - (m <= 2) as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = ((m + 9) % 12) as u64;
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1);
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe as i64 - 719_468
}

/// Civil date `(year, month, day)` for days since the epoch.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + (m <= 2) as i64, m, d)
}

/// Civil time decomposition of an epoch instant (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    /// Year (proleptic Gregorian).
    pub year: i64,
    /// Month 1–12.
    pub month: u32,
    /// Day of month 1–31.
    pub day: u32,
    /// Hour 0–23.
    pub hour: u32,
    /// Minute 0–59.
    pub minute: u32,
    /// Second 0–59.
    pub second: u32,
}

/// Decomposes an epoch instant into UTC civil time.
pub fn civil_from_epoch(epoch: i64) -> Civil {
    let days = epoch.div_euclid(86_400);
    let secs = epoch.rem_euclid(86_400) as u32;
    let (year, month, day) = civil_from_days(days);
    Civil { year, month, day, hour: secs / 3600, minute: secs % 3600 / 60, second: secs % 60 }
}

/// Composes UTC civil time into an epoch instant.
pub fn epoch_from_civil(c: &Civil) -> i64 {
    days_from_civil(c.year, c.month, c.day) * 86_400
        + (c.hour * 3600 + c.minute * 60 + c.second) as i64
}

impl PDate {
    /// Parses `text` (logical ASCII) as a date, trying each known style.
    /// Returns `None` when no style matches the whole text.
    pub fn parse(text: &str) -> Option<PDate> {
        parse_clf(text)
            .or_else(|| parse_iso_datetime(text))
            .or_else(|| parse_iso_date(text))
            .or_else(|| parse_us_slash(text))
            .or_else(|| parse_epoch(text))
    }

    /// Renders the date in its original on-disk style
    /// ([`render::date`](crate::render::date)).
    pub fn to_original(&self) -> String {
        let mut out = Vec::new();
        crate::render::date(&mut out, self);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Formats the date (in UTC) with a strftime-like format string.
    ///
    /// Supported directives: `%Y %y %m %d %b %H %M %S %D` (= `%m/%d/%y`),
    /// `%T` (= `%H:%M:%S`), `%s` (epoch seconds), `%%`.
    /// Unrecognised directives are emitted literally.
    pub fn format(&self, fmt: &str) -> String {
        let c = civil_from_epoch(self.epoch);
        let mut out = String::with_capacity(fmt.len() + 8);
        let mut chars = fmt.chars();
        while let Some(ch) = chars.next() {
            if ch != '%' {
                out.push(ch);
                continue;
            }
            match chars.next() {
                Some('Y') => out.push_str(&format!("{:04}", c.year)),
                Some('y') => out.push_str(&format!("{:02}", c.year.rem_euclid(100))),
                Some('m') => out.push_str(&format!("{:02}", c.month)),
                Some('d') => out.push_str(&format!("{:02}", c.day)),
                Some('b') => out.push_str(MONTHS[(c.month - 1) as usize]),
                Some('H') => out.push_str(&format!("{:02}", c.hour)),
                Some('M') => out.push_str(&format!("{:02}", c.minute)),
                Some('S') => out.push_str(&format!("{:02}", c.second)),
                Some('D') => out.push_str(&format!(
                    "{:02}/{:02}/{:02}",
                    c.month,
                    c.day,
                    c.year.rem_euclid(100)
                )),
                Some('T') => {
                    out.push_str(&format!("{:02}:{:02}:{:02}", c.hour, c.minute, c.second))
                }
                Some('s') => out.push_str(&self.epoch.to_string()),
                Some('%') => out.push('%'),
                Some(other) => {
                    out.push('%');
                    out.push(other);
                }
                None => out.push('%'),
            }
        }
        out
    }
}

impl Default for PDate {
    /// The epoch instant, in epoch-seconds style.
    fn default() -> PDate {
        PDate { epoch: 0, tz_minutes: 0, style: DateStyle::Epoch }
    }
}

impl std::fmt::Display for PDate {
    /// Displays the date in its original on-disk style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        crate::render::display(f, |out| crate::render::date(out, self))
    }
}

fn month_from_abbrev(s: &str) -> Option<u32> {
    MONTHS.iter().position(|m| m.eq_ignore_ascii_case(s)).map(|i| i as u32 + 1)
}

fn parse_clf(text: &str) -> Option<PDate> {
    // dd/Mon/yyyy:HH:MM:SS [+-]HHMM
    let b = text.as_bytes();
    if b.len() != 26 {
        return None;
    }
    let day: u32 = text.get(0..2)?.parse().ok()?;
    if b[2] != b'/' || b[6] != b'/' || b[11] != b':' || b[14] != b':' || b[17] != b':' || b[20] != b' '
    {
        return None;
    }
    let month = month_from_abbrev(text.get(3..6)?)?;
    let year: i64 = text.get(7..11)?.parse().ok()?;
    let hour: u32 = text.get(12..14)?.parse().ok()?;
    let minute: u32 = text.get(15..17)?.parse().ok()?;
    let second: u32 = text.get(18..20)?.parse().ok()?;
    let sign: i32 = match b[21] {
        b'+' => 1,
        b'-' => -1,
        _ => return None,
    };
    let tzh: i32 = text.get(22..24)?.parse().ok()?;
    let tzm: i32 = text.get(24..26)?.parse().ok()?;
    if !valid_hms(hour, minute, second) || !valid_md(month, day) {
        return None;
    }
    let tz_minutes = sign * (tzh * 60 + tzm);
    let local = Civil { year, month, day, hour, minute, second };
    Some(PDate {
        epoch: epoch_from_civil(&local) - tz_minutes as i64 * 60,
        tz_minutes,
        style: DateStyle::Clf,
    })
}

fn valid_hms(h: u32, m: u32, s: u32) -> bool {
    h < 24 && m < 60 && s < 60
}

fn valid_md(m: u32, d: u32) -> bool {
    (1..=12).contains(&m) && (1..=31).contains(&d)
}

fn parse_iso_datetime(text: &str) -> Option<PDate> {
    // yyyy-mm-ddTHH:MM:SS
    let b = text.as_bytes();
    if b.len() != 19 || b[4] != b'-' || b[7] != b'-' || b[10] != b'T' || b[13] != b':' || b[16] != b':'
    {
        return None;
    }
    let year: i64 = text.get(0..4)?.parse().ok()?;
    let month: u32 = text.get(5..7)?.parse().ok()?;
    let day: u32 = text.get(8..10)?.parse().ok()?;
    let hour: u32 = text.get(11..13)?.parse().ok()?;
    let minute: u32 = text.get(14..16)?.parse().ok()?;
    let second: u32 = text.get(17..19)?.parse().ok()?;
    if !valid_hms(hour, minute, second) || !valid_md(month, day) {
        return None;
    }
    let c = Civil { year, month, day, hour, minute, second };
    Some(PDate { epoch: epoch_from_civil(&c), tz_minutes: 0, style: DateStyle::IsoDateTime })
}

fn parse_iso_date(text: &str) -> Option<PDate> {
    let b = text.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    let year: i64 = text.get(0..4)?.parse().ok()?;
    let month: u32 = text.get(5..7)?.parse().ok()?;
    let day: u32 = text.get(8..10)?.parse().ok()?;
    if !valid_md(month, day) {
        return None;
    }
    let c = Civil { year, month, day, hour: 0, minute: 0, second: 0 };
    Some(PDate { epoch: epoch_from_civil(&c), tz_minutes: 0, style: DateStyle::IsoDate })
}

fn parse_us_slash(text: &str) -> Option<PDate> {
    let mut parts = text.split('/');
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    let ystr = parts.next()?;
    if parts.next().is_some() || !valid_md(month, day) {
        return None;
    }
    let year: i64 = match ystr.len() {
        2 => {
            let y: i64 = ystr.parse().ok()?;
            if y < 70 {
                2000 + y
            } else {
                1900 + y
            }
        }
        4 => ystr.parse().ok()?,
        _ => return None,
    };
    let c = Civil { year, month, day, hour: 0, minute: 0, second: 0 };
    Some(PDate { epoch: epoch_from_civil(&c), tz_minutes: 0, style: DateStyle::UsSlash })
}

fn parse_epoch(text: &str) -> Option<PDate> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let epoch: i64 = text.parse().ok()?;
    Some(PDate { epoch, tz_minutes: 0, style: DateStyle::Epoch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_round_trip() {
        for &days in &[-719_468i64, -1, 0, 1, 10_957, 2_932_896] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
    }

    #[test]
    fn clf_date_from_figure_2() {
        let d = PDate::parse("15/Oct/1997:18:46:51 -0700").expect("parses");
        assert_eq!(d.style, DateStyle::Clf);
        assert_eq!(d.tz_minutes, -420);
        // 18:46:51 -0700 is 01:46:51 UTC the next day.
        let c = civil_from_epoch(d.epoch);
        assert_eq!((c.year, c.month, c.day, c.hour, c.minute, c.second), (1997, 10, 16, 1, 46, 51));
        assert_eq!(d.to_original(), "15/Oct/1997:18:46:51 -0700");
        // The %D:%T output of Figure 8.
        assert_eq!(d.format("%D:%T"), "10/16/97:01:46:51");
    }

    #[test]
    fn iso_styles() {
        let d = PDate::parse("2002-04-14").unwrap();
        assert_eq!(d.style, DateStyle::IsoDate);
        assert_eq!(d.to_original(), "2002-04-14");
        let dt = PDate::parse("2002-04-14T06:30:00").unwrap();
        assert_eq!(dt.epoch - d.epoch, 6 * 3600 + 30 * 60);
    }

    #[test]
    fn us_slash_two_and_four_digit_years() {
        let d = PDate::parse("10/16/97").unwrap();
        assert_eq!(civil_from_epoch(d.epoch).year, 1997);
        let d = PDate::parse("01/02/2003").unwrap();
        assert_eq!(civil_from_epoch(d.epoch).year, 2003);
        let d = PDate::parse("05/05/25").unwrap();
        assert_eq!(civil_from_epoch(d.epoch).year, 2025);
    }

    #[test]
    fn epoch_style() {
        let d = PDate::parse("1005022800").unwrap();
        assert_eq!(d.style, DateStyle::Epoch);
        assert_eq!(d.epoch, 1_005_022_800);
        assert_eq!(d.to_original(), "1005022800");
    }

    #[test]
    fn rejects_garbage() {
        assert!(PDate::parse("").is_none());
        assert!(PDate::parse("not a date").is_none());
        assert!(PDate::parse("15/Oct/1997").is_none());
        assert!(PDate::parse("99/99/1999").is_none());
        assert!(PDate::parse("2002-13-40").is_none());
    }

    #[test]
    fn format_directives() {
        let d = PDate::parse("1997-10-16T01:46:51").unwrap();
        assert_eq!(d.format("%Y-%m-%d %H:%M:%S"), "1997-10-16 01:46:51");
        assert_eq!(d.format("%b %y"), "Oct 97");
        assert_eq!(d.format("100%%"), "100%");
        assert_eq!(d.format("%s"), d.epoch.to_string());
        assert_eq!(d.format("%q"), "%q");
    }
}

//! A minimal JSON writer for the benchmark's reports. The workspace's
//! canonical JSON has no floats, and timings need them.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub enum J {
    Num(f64),
    Int(u64),
    Str(String),
    List(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj() -> J {
        J::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    pub fn set(&mut self, key: &str, value: J) {
        match self {
            J::Obj(pairs) => pairs.push((key.to_string(), value)),
            _ => panic!("J::set on a non-object"),
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            J::Num(v) if v.is_finite() => {
                let _ = write!(s, "{v:?}");
            }
            J::Num(_) => s.push_str("null"),
            J::Int(v) => {
                let _ = write!(s, "{v}");
            }
            J::Str(text) => quote(s, text),
            J::List(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            J::Obj(pairs) => {
                s.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    quote(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }
}

fn quote(s: &mut String, text: &str) {
    s.push('"');
    for ch in text.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

pub fn strs(items: &[String]) -> J {
    J::List(items.iter().map(|e| J::Str(e.clone())).collect())
}

/// A report that carries only the error that stopped it.
pub fn failure(message: String) -> J {
    let mut out = J::obj();
    out.set("errors", strs(&[message]));
    out
}

/// Nearest-rank percentile (`q` in (0, 1]) of unsorted samples; `None`
/// when there are none.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median by nearest rank, or 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

/// The textbook median: the mean of the two middle samples for an even
/// count. For a handful of heterogeneous samples it does not jump when the
/// two middle ones swap places.
pub fn middle(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&xs, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn middle_averages_the_two_middle_samples() {
        assert_eq!(middle(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(middle(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(middle(&[]), None);
    }

    #[test]
    fn p50_never_exceeds_p99() {
        let mut rng = gasnub::memsim::rng::Rng::new(9);
        for n in 1..200 {
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0, 1000) as f64).collect();
            assert!(nearest_rank(&xs, 0.5) <= nearest_rank(&xs, 0.99));
            assert!(middle(&xs) <= nearest_rank(&xs, 0.99));
        }
    }

    #[test]
    fn rendering_escapes_and_keeps_float_digits() {
        let mut o = J::obj();
        o.set("a\"b", J::Num(0.1 + 0.2));
        o.set("n", J::Int(3));
        assert_eq!(o.render(), "{\"a\\\"b\":0.30000000000000004,\"n\":3}");
    }
}

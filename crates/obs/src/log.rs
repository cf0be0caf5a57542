//! Structured, leveled, nd-JSON logging.
//!
//! One JSON object per line, written to stderr by default (a daemon's
//! natural log channel; the protocol socket stays pure). Each line
//! carries a monotonic microsecond timestamp (`t_us`, measured from
//! process logger init — wall-clock-free so log deltas are meaningful
//! even across clock steps), the level, an `event` name, and whatever
//! typed fields the call site attaches (connection and request ids in
//! the serving stack).
//!
//! The level filter is one relaxed atomic load; below-level events cost
//! nothing else. `RTDC_LOG` (values `off`, `error`, `warn`, `info`,
//! `debug`, `trace`) overrides the process default: the `rtdc-serve`
//! daemon defaults to `info`, libraries and tests to `off`.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is logged.
    Off = 0,
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious but handled conditions.
    Warn = 2,
    /// Lifecycle events (startup, connections, shutdown).
    Info = 3,
    /// Per-request events.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// The wire name (`"info"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive). `None` for unknown text.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = 0xFF;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: OnceLock<Mutex<Box<dyn Write + Send>>> = OnceLock::new();

fn sink() -> &'static Mutex<Box<dyn Write + Send>> {
    SINK.get_or_init(|| Mutex::new(Box::new(std::io::stderr())))
}

/// Microseconds since logger init (monotonic).
pub fn now_micros() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

/// Initializes the level from `RTDC_LOG`, falling back to `default`.
/// Also pins the monotonic epoch. Calling again re-reads the
/// environment (tests lean on this; daemons call it once at startup).
pub fn init(default: Level) -> Level {
    let level = std::env::var("RTDC_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(default);
    LEVEL.store(level as u8, Ordering::Relaxed);
    now_micros();
    level
}

/// Sets the level directly (overriding any `RTDC_LOG` value).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Redirects log output (tests capture lines through this). The sink is
/// process-global and can be set once; later calls return `false` and
/// change nothing.
pub fn set_sink(w: Box<dyn Write + Send>) -> bool {
    SINK.set(Mutex::new(w)).is_ok()
}

/// Whether events at `level` are currently emitted.
pub fn enabled(level: Level) -> bool {
    let cur = LEVEL.load(Ordering::Relaxed);
    let cur = if cur == LEVEL_UNSET {
        init(Level::Off) as u8
    } else {
        cur
    };
    level as u8 <= cur && level != Level::Off
}

/// Appends `s` to `out` as a JSON string literal. The crate's one
/// escaper: log lines and metrics snapshots both render through it.
pub(crate) fn esc_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One structured log event under construction. Dropping without
/// [`Event::emit`] emits nothing.
pub struct Event {
    buf: Option<String>,
}

/// Starts an event at `level` named `event`. When the level is
/// filtered out this allocates nothing and every field call is a no-op.
pub fn event(level: Level, event: &str) -> Event {
    if !enabled(level) {
        return Event { buf: None };
    }
    let mut buf = String::with_capacity(96);
    buf.push_str("{\"t_us\":");
    buf.push_str(&now_micros().to_string());
    buf.push_str(",\"level\":");
    esc_into(&mut buf, level.name());
    buf.push_str(",\"event\":");
    esc_into(&mut buf, event);
    Event { buf: Some(buf) }
}

impl Event {
    /// Attaches a string field.
    pub fn str(mut self, key: &str, value: &str) -> Event {
        if let Some(buf) = &mut self.buf {
            buf.push(',');
            esc_into(buf, key);
            buf.push(':');
            esc_into(buf, value);
        }
        self
    }

    /// Attaches an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Event {
        if let Some(buf) = &mut self.buf {
            buf.push(',');
            esc_into(buf, key);
            buf.push(':');
            buf.push_str(&value.to_string());
        }
        self
    }

    /// Attaches an already-rendered JSON value (e.g. a metrics
    /// snapshot) under `key`.
    pub fn raw(mut self, key: &str, json: &str) -> Event {
        if let Some(buf) = &mut self.buf {
            buf.push(',');
            esc_into(buf, key);
            buf.push(':');
            buf.push_str(json);
        }
        self
    }

    /// Writes the event as one line. I/O errors are swallowed: logging
    /// must never take the daemon down.
    pub fn emit(self) {
        let Some(mut buf) = self.buf else { return };
        buf.push_str("}\n");
        if let Ok(mut w) = sink().lock() {
            let _ = w.write_all(buf.as_bytes());
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Trace);
    }

    /// The level is process-global and the test harness runs tests on
    /// parallel threads: every test that sets it holds this lock.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn filtered_events_build_nothing() {
        let _level = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(Level::Warn);
        let ev = event(Level::Debug, "x").str("k", "v").u64("n", 1);
        assert!(ev.buf.is_none());
        let ev = event(Level::Error, "boom").str("k", "v");
        assert!(ev.buf.as_deref().is_some_and(|b| b.contains("\"boom\"")));
        set_level(Level::Off);
        assert!(!enabled(Level::Error), "Off filters everything");
    }

    #[test]
    fn events_render_as_json_lines() {
        let _level = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_level(Level::Info);
        let ev = event(Level::Info, "conn_open")
            .u64("conn", 3)
            .str("peer", "a\"b")
            .raw("extra", "{\"x\":1}");
        let buf = ev.buf.clone().unwrap() + "}";
        set_level(Level::Off);
        assert!(buf.starts_with("{\"t_us\":"));
        assert!(buf.contains("\"event\":\"conn_open\""));
        assert!(buf.contains("\"conn\":3"));
        assert!(buf.contains("\"peer\":\"a\\\"b\""));
        assert!(buf.ends_with("\"extra\":{\"x\":1}}"));
    }
}

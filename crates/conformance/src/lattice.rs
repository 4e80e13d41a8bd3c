//! The execution-configuration lattice the oracle sweeps.
//!
//! One [`ExecPoint`] pins everything about *how* the driver executes a
//! script that is supposed to be functionally invisible: fragment engine,
//! bind-time specialisation, dispatcher (serial / scope-spawn / persistent
//! pool), draw-plan caching and host thread count. [`lattice`] enumerates
//! the points every case is held against; index 0 is the serial scalar
//! [`baseline`](ExecPoint::baseline) the others are compared to.

use std::fmt;

use mgpu_gles::{Engine, ExecConfig, Gl};

/// One point of the execution-configuration lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPoint {
    /// Fragment engine tier.
    pub engine: Engine,
    /// Bind-time uniform specialisation (compiled tier; the scalar tier
    /// ignores it).
    pub spec: bool,
    /// Persistent-pool dispatcher (`false` = legacy scope-spawn path when
    /// threaded, plain serial path when `threads == 1`).
    pub pool: bool,
    /// Per-context draw-plan cache (only reachable through the pool).
    pub plan_cache: bool,
    /// Tile-signature redundancy elimination (`MGPU_TILE_SKIP`). Changes
    /// *simulated time* by design, so the oracle only holds reports equal
    /// within a skip group — transcripts must still match the baseline.
    pub tile_skip: bool,
    /// Host worker threads.
    pub threads: usize,
}

impl ExecPoint {
    /// The reference point every other configuration must match: serial,
    /// scalar, no pool, no plan cache, no specialisation.
    #[must_use]
    pub fn baseline() -> ExecPoint {
        ExecPoint {
            engine: Engine::Scalar,
            spec: false,
            pool: false,
            plan_cache: false,
            tile_skip: false,
            threads: 1,
        }
    }

    /// Applies this point to a context: composes the [`ExecConfig`] and
    /// pins the plan cache.
    pub fn apply(&self, gl: &mut Gl) {
        let exec = ExecConfig::serial()
            .with_thread_count(self.threads)
            .with_engine(self.engine)
            .with_pool(self.pool)
            .with_specialization(self.spec)
            .with_tile_skip(self.tile_skip);
        gl.set_exec_config(exec);
        gl.set_plan_cache_enabled(self.plan_cache);
    }

    /// Parses the [`Display`](fmt::Display) form back into a point.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(text: &str) -> Result<ExecPoint, String> {
        let mut point = ExecPoint::baseline();
        for tok in text.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad exec-point field `{tok}` (expected key=value)"))?;
            match key {
                "engine" => {
                    point.engine = match value {
                        "scalar" => Engine::Scalar,
                        "compiled" => Engine::Compiled,
                        other => return Err(format!("unknown engine `{other}`")),
                    };
                }
                "spec" => point.spec = parse_switch(value)?,
                "pool" => point.pool = parse_switch(value)?,
                "cache" => point.plan_cache = parse_switch(value)?,
                "skip" => point.tile_skip = parse_switch(value)?,
                "threads" => {
                    point.threads = value
                        .parse::<usize>()
                        .map_err(|_| format!("bad thread count `{value}`"))?
                        .max(1);
                }
                other => return Err(format!("unknown exec-point key `{other}`")),
            }
        }
        Ok(point)
    }
}

fn parse_switch(value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("bad switch `{other}` (expected on/off)")),
    }
}

impl fmt::Display for ExecPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let onoff = |b: bool| if b { "on" } else { "off" };
        write!(
            f,
            "engine={} spec={} pool={} cache={} skip={} threads={}",
            match self.engine {
                Engine::Scalar => "scalar",
                Engine::Compiled => "compiled",
            },
            onoff(self.spec),
            onoff(self.pool),
            onoff(self.plan_cache),
            onoff(self.tile_skip),
            self.threads
        )
    }
}

/// The full lattice: {scalar, compiled±spec} × {serial; scope-spawn and
/// pool (with the plan cache both on and off) at 2 and 8 threads}, plus
/// per engine variant three tile-skip points (serial, and pool+cache at 2
/// and 8 threads). 30 points; index 0 is [`ExecPoint::baseline`].
#[must_use]
pub fn lattice() -> Vec<ExecPoint> {
    let mut points = Vec::new();
    for &(engine, spec) in &[
        (Engine::Scalar, false),
        (Engine::Compiled, true),
        (Engine::Compiled, false),
    ] {
        let base = ExecPoint {
            engine,
            spec,
            pool: false,
            plan_cache: false,
            tile_skip: false,
            threads: 1,
        };
        points.push(base);
        for threads in [2usize, 8] {
            points.push(ExecPoint { threads, ..base });
            points.push(ExecPoint {
                pool: true,
                plan_cache: true,
                threads,
                ..base
            });
            points.push(ExecPoint {
                pool: true,
                plan_cache: false,
                threads,
                ..base
            });
        }
        // Tile-skip axis: the serial path and both pooled thread counts.
        // Every skip-on point must replay byte-identical transcripts; the
        // oracle additionally holds their reports equal to each other.
        points.push(ExecPoint {
            tile_skip: true,
            ..base
        });
        for threads in [2usize, 8] {
            points.push(ExecPoint {
                pool: true,
                plan_cache: true,
                tile_skip: true,
                threads,
                ..base
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_30_points_and_starts_at_baseline() {
        let points = lattice();
        assert_eq!(points.len(), 30);
        assert_eq!(points[0], ExecPoint::baseline());
        // All distinct.
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Three skip-on points per engine variant: serial plus pooled at
        // 2 and 8 threads, all with the plan cache following the pool.
        let skips: Vec<&ExecPoint> = points.iter().filter(|p| p.tile_skip).collect();
        assert_eq!(skips.len(), 9);
        for p in &skips {
            assert_eq!(p.pool, p.plan_cache);
            assert!(p.pool || p.threads == 1);
        }
    }

    #[test]
    fn display_parse_round_trips_every_point() {
        for point in lattice() {
            let text = point.to_string();
            assert_eq!(ExecPoint::parse(&text), Ok(point), "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        assert!(ExecPoint::parse("engine=vliw").is_err());
        assert!(ExecPoint::parse("engine=batched").is_err());
        assert!(ExecPoint::parse("spec=maybe").is_err());
        assert!(ExecPoint::parse("skip=maybe").is_err());
        assert!(ExecPoint::parse("threads=zero").is_err());
        assert!(ExecPoint::parse("bogus=1").is_err());
        assert!(ExecPoint::parse("nokey").is_err());
    }
}

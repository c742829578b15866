//! The deterministic sharded runner behind every multi-device driver.
//!
//! Work distribution is one atomic index over `0..n`: each of the
//! `std::thread::scope` workers claims the next unit, runs it against its
//! own shard-local state, and keeps the result tagged with its index.
//! Nothing is shared between shards on the hot path. After join the
//! results are placed back in index order, so the output is identical
//! for any worker count as long as each unit is a pure function of its
//! index.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Raises the stop flag if its worker unwinds, so the other shards stop
/// claiming units instead of running the rest of the work.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// One worker's take: its `(index, result)` pairs, its final state, and
/// the first unit that failed, if one did.
type ShardOutput<S, T> = (Vec<(usize, T)>, S, Option<(usize, String)>);

/// Runs `work(&mut state, i)` for every `i` in `0..n` on up to `threads`
/// scoped workers. Each worker builds its state once with
/// `init_shard(shard)` and tags its profiler attribution with
/// [`sdb_prof::set_shard`].
///
/// Returns the results in index order together with every shard's final
/// state (one per worker actually started: `threads` clamped to
/// `1..=max(n, 1)`).
///
/// # Errors
///
/// A unit that returns `Err` stops every worker from claiming further
/// units; the error of the lowest failing index is returned. A worker
/// that panics also stops the others, and yields
/// `Err("shard worker panicked")`.
pub fn shard_map<S, T, I, W>(
    n: usize,
    threads: usize,
    init_shard: I,
    work: W,
) -> Result<(Vec<T>, Vec<S>), String>
where
    S: Send,
    T: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> Result<T, String> + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let joined: Vec<std::thread::Result<ShardOutput<S, T>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|shard| {
                let (next, stop, init_shard, work) = (&next, &stop, &init_shard, &work);
                s.spawn(move || {
                    let _stop_on_panic = StopOnPanic(stop);
                    // Shard attribution is wall-clock-quarantined: the
                    // shard → unit assignment depends on the thread count
                    // and scheduling.
                    sdb_prof::set_shard(u16::try_from(shard).unwrap_or(u16::MAX));
                    let mut state = init_shard(shard);
                    // Pre-size for the even-split case; the queue handles skew.
                    let mut out = Vec::with_capacity(n / workers + 1);
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match work(&mut state, i) {
                            Ok(v) => out.push((i, v)),
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                return (out, state, Some((i, e)));
                            }
                        }
                    }
                    (out, state, None)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut states = Vec::with_capacity(workers);
    let mut failure: Option<(usize, String)> = None;
    let mut panicked = false;
    for shard in joined {
        let Ok((out, state, err)) = shard else {
            panicked = true;
            continue;
        };
        for (i, v) in out {
            slots[i] = Some(v);
        }
        states.push(state);
        if let Some((i, e)) = err {
            if !matches!(failure, Some((j, _)) if j < i) {
                failure = Some((i, e));
            }
        }
    }
    if panicked {
        return Err("shard worker panicked".to_owned());
    }
    if let Some((_, e)) = failure {
        return Err(e);
    }
    let results = slots
        .into_iter()
        .map(|v| v.expect("every unit ran: no worker stopped early"))
        .collect();
    Ok((results, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A unit whose result depends only on its index.
    fn square(_: &mut usize, i: usize) -> Result<u64, String> {
        Ok((i as u64) * (i as u64) + 7)
    }

    #[test]
    fn results_are_in_index_order_at_any_thread_count() {
        for n in [0, 1, 2, 5, 64] {
            let expected: Vec<u64> = (0..n).map(|i| square(&mut 0, i).unwrap()).collect();
            for threads in [0, 1, 2, 3, 8] {
                let (out, states) = shard_map(
                    n,
                    threads,
                    |_| 0usize,
                    |units, i| {
                        *units += 1;
                        square(units, i)
                    },
                )
                .unwrap();
                assert_eq!(out, expected, "n = {n}, threads = {threads}");
                // One state per started worker; together they ran each
                // unit exactly once, and never more workers than units.
                assert_eq!(states.len(), threads.clamp(1, n.max(1)));
                assert_eq!(states.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn shard_states_are_built_once_per_worker() {
        let built = AtomicUsize::new(0);
        let (_, states) = shard_map(
            40,
            3,
            |shard| {
                built.fetch_add(1, Ordering::Relaxed);
                (shard, 0usize)
            },
            |state, _| {
                state.1 += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(built.load(Ordering::Relaxed), 3);
        let mut shards: Vec<usize> = states.iter().map(|s| s.0).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2]);
    }

    #[test]
    fn a_panicking_unit_returns_err_without_hanging() {
        for threads in [1, 2, 8] {
            let err = shard_map(
                100,
                threads,
                |_| (),
                |(), i| {
                    assert!(i != 17, "unit 17 explodes");
                    Ok(i)
                },
            )
            .unwrap_err();
            assert_eq!(err, "shard worker panicked");
        }
    }

    #[test]
    fn a_failing_unit_stops_further_claims() {
        let ran = AtomicUsize::new(0);
        let err = shard_map(
            10_000,
            1,
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err(format!("unit {i} failed"))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, "unit 3 failed");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "no unit after the failure ran"
        );

        // With several workers each stops after at most its in-flight
        // unit, and the lowest failing index wins.
        let ran = AtomicUsize::new(0);
        let err = shard_map(
            10_000,
            4,
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i >= 5 {
                    Err(format!("unit {i} failed"))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, "unit 5 failed");
        assert!(ran.load(Ordering::Relaxed) < 100, "workers kept claiming");
    }
}

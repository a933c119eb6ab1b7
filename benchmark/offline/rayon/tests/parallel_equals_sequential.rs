//! Every operation the kessler crates use gives the result the sequential
//! code would, on the global pool and on pools of 1, 2 and 5 threads.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn on_pools(test: impl Fn() + Send + Sync) {
    test();
    for threads in [1, 2, 5] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            assert_eq!(rayon::current_num_threads(), threads);
            test();
        });
    }
}

#[test]
fn for_each_visits_every_element_once() {
    on_pools(|| {
        for n in [0usize, 1, 2, 7, 1000, 4099] {
            let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            cells.par_iter().for_each(|c| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));

            let mut out = vec![0usize; n];
            out.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i * i);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));

            let visited = AtomicUsize::new(0);
            (0..n).into_par_iter().for_each(|_| {
                visited.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(visited.load(Ordering::Relaxed), n);
        }
    });
}

#[test]
fn par_chunks_mut_enumerate_sees_the_sequential_chunks() {
    on_pools(|| {
        for (n, size) in [(0usize, 4usize), (3, 4), (8, 4), (1030, 64), (5000, 1024)] {
            let mut par = vec![0u32; n];
            par.par_chunks_mut(size)
                .enumerate()
                .for_each(|(tile, chunk)| {
                    let len = chunk.len() as u32;
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = (tile * size + k) as u32 + 1000 * len;
                    }
                });
            let mut seq = vec![0u32; n];
            for (tile, chunk) in seq.chunks_mut(size).enumerate() {
                let len = chunk.len() as u32;
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = (tile * size + k) as u32 + 1000 * len;
                }
            }
            assert_eq!(par, seq);
        }
    });
}

#[test]
fn zip_pairs_positions() {
    on_pools(|| {
        let a: Vec<u64> = (0..3001).collect();
        let b: Vec<u64> = (0..3001).map(|x| x * 3).collect();
        let sum = AtomicU64::new(0);
        a.par_iter().zip(b.par_iter()).for_each(|(x, y)| {
            assert_eq!(*y, *x * 3);
            sum.fetch_add(x + y, Ordering::Relaxed);
        });
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (0..3001u64).map(|x| 4 * x).sum()
        );

        let mut slots = vec![0u64; 10];
        let steps: Vec<u64> = (100..107).collect();
        slots[..7]
            .par_iter_mut()
            .zip(steps.par_iter())
            .for_each(|(slot, &step)| *slot = step);
        assert_eq!(slots, vec![100, 101, 102, 103, 104, 105, 106, 0, 0, 0]);
    });
}

#[test]
fn collect_and_par_extend_keep_sequential_order() {
    on_pools(|| {
        let data: Vec<u32> = (0..10_007).collect();
        let evens: Vec<u32> = data
            .par_iter()
            .filter(|&&x| x % 2 == 0)
            .map(|&x| x)
            .collect();
        assert_eq!(
            evens,
            data.iter()
                .copied()
                .filter(|x| x % 2 == 0)
                .collect::<Vec<_>>()
        );

        let occupied: Vec<usize> = (0..data.len())
            .into_par_iter()
            .filter(|&i| data[i] % 7 == 3)
            .collect();
        assert_eq!(
            occupied,
            (0..data.len())
                .filter(|&i| data[i] % 7 == 3)
                .collect::<Vec<_>>()
        );

        let pairs: Vec<(u32, u32)> = (0..200u32)
            .into_par_iter()
            .flat_map_iter(|i| {
                ((i + 1)..200).filter_map(move |j| ((i + j) % 5 == 0).then_some((i, j)))
            })
            .collect();
        let expected: Vec<(u32, u32)> = (0..200u32)
            .flat_map(|i| ((i + 1)..200).filter_map(move |j| ((i + j) % 5 == 0).then_some((i, j))))
            .collect();
        assert_eq!(pairs, expected);

        let mut found = vec![u32::MAX];
        for chunk in data.chunks(1024) {
            found.par_extend(
                chunk
                    .par_iter()
                    .filter_map(|&x| (x % 3 == 0).then_some(x * 2)),
            );
        }
        let mut expected = vec![u32::MAX];
        expected.extend(data.iter().filter_map(|&x| (x % 3 == 0).then_some(x * 2)));
        assert_eq!(found, expected);

        let a: Vec<u32> = (0..999).collect();
        let b: Vec<u32> = (0..999).rev().collect();
        let mut zipped: Vec<u32> = Vec::new();
        zipped.par_extend(
            a.par_iter()
                .zip(b.par_iter())
                .flat_map_iter(|(x, y)| (x < y).then_some(x + y)),
        );
        let expected: Vec<u32> = a
            .iter()
            .zip(&b)
            .filter_map(|(x, y)| (x < y).then_some(x + y))
            .collect();
        assert_eq!(zipped, expected);
    });
}

#[test]
fn count_fold_reduce_match_sequential() {
    on_pools(|| {
        let data: Vec<u64> = (0..20_011).collect();
        let outside = data
            .par_iter()
            .enumerate()
            .filter(|&(i, &x)| (i as u64 + x).is_multiple_of(11))
            .count();
        assert_eq!(outside, data.iter().filter(|&&x| (2 * x) % 11 == 0).count());

        // The sieve screener's shape: fold into (Vec, stats), reduce by
        // concatenation and addition.
        let (kept, total) = data
            .par_iter()
            .fold(
                || (Vec::new(), 0u64),
                |(mut acc, sum), &x| {
                    if x % 13 == 0 {
                        acc.push(x);
                    }
                    (acc, sum + x)
                },
            )
            .reduce(
                || (Vec::new(), 0u64),
                |(mut a, sa), (b, sb)| {
                    a.extend(b);
                    (a, sa + sb)
                },
            );
        assert_eq!(
            kept,
            data.iter()
                .copied()
                .filter(|x| x % 13 == 0)
                .collect::<Vec<_>>()
        );
        assert_eq!(total, data.iter().sum::<u64>());
    });
}

#[test]
fn try_for_each_returns_an_error_that_occurred() {
    on_pools(|| {
        let data: Vec<u32> = (0..5000).collect();
        let ok: Result<(), u32> = data.par_iter().enumerate().try_for_each(|_| Ok(()));
        assert_eq!(ok, Ok(()));
        let err: Result<(), u32> =
            data.par_iter()
                .try_for_each(|&x| if x % 1000 == 999 { Err(x) } else { Ok(()) });
        assert!(matches!(err, Err(x) if x % 1000 == 999));
    });
}

#[test]
fn nested_parallel_calls_complete() {
    on_pools(|| {
        // The multi-grid scheduler's shape: an outer parallel loop over a
        // few slots, each running full-size inner parallel loops.
        let mut slots: Vec<Vec<u64>> = (0..3).map(|_| vec![0u64; 4096]).collect();
        slots.par_iter_mut().enumerate().for_each(|(s, slot)| {
            slot.par_iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = (s * 10_000 + i) as u64);
            let total: usize = slot.par_iter().filter(|&&v| v % 2 == 0).count();
            assert_eq!(total, 2048);
        });
        for (s, slot) in slots.iter().enumerate() {
            assert!(slot
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (s * 10_000 + i) as u64));
        }
    });
}

#[test]
fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            (0..1000usize).into_par_iter().for_each(|i| {
                if i == 777 {
                    panic!("chunk dies");
                }
            });
        })
    }));
    assert!(caught.is_err());
    let n = pool.install(|| {
        (0..1000usize)
            .into_par_iter()
            .filter(|i| i % 2 == 1)
            .count()
    });
    assert_eq!(n, 500);
}

#[test]
fn many_short_calls_from_several_threads_at_once() {
    // Several service workers screen concurrently on the global pool.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                for round in 0..300u64 {
                    let data: Vec<u64> = (0..257).map(|x| x + t + round).collect();
                    let doubled: Vec<u64> = data.par_iter().map(|x| x * 2).collect();
                    assert!(doubled.iter().zip(&data).all(|(d, x)| *d == x * 2));
                }
            });
        }
    });
}

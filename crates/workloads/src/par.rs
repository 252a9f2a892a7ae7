//! Tiny data-parallel helper over `std::thread::scope`.
//!
//! The paper's CPU baselines are OpenMP loops; this is the Rust
//! equivalent: split an output slice into contiguous chunks, one worker
//! per chunk, no locks, data-race freedom enforced by `split_at_mut`
//! semantics (each worker owns a disjoint `&mut` chunk).

/// Applies `f(start_index, chunk)` to disjoint chunks of `out`, in
/// parallel across `threads` workers. `f` receives the global start index
/// of its chunk so workers can locate themselves in the input arrays.
/// A panicking worker panics the caller once every worker has finished.
pub fn par_chunks<T: Send, F>(out: &mut [T], threads: usize, chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if out.is_empty() {
        return;
    }
    let threads = threads.max(1);
    if threads == 1 || out.len() <= chunk_len {
        f(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = out;
        let mut start = 0usize;
        // Hand each worker a run of whole chunks.
        let per_worker = out_len_chunks(rest.len(), chunk_len).div_ceil(threads) * chunk_len;
        while !rest.is_empty() {
            let take = per_worker.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let head_start = start;
            scope.spawn(move || f(head_start, head));
            start += take;
            rest = tail;
        }
    });
}

fn out_len_chunks(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk)
}

/// Default worker count for the reference implementations — the paper's
/// OpenMP runs use 8 threads (§IV-B).
pub const REFERENCE_THREADS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let n = 10_007; // deliberately not a multiple of anything
        let input: Vec<u64> = (0..n as u64).collect();
        let mut seq = vec![0u64; n];
        for (i, v) in seq.iter_mut().enumerate() {
            *v = input[i] * 3 + 1;
        }
        let mut par = vec![0u64; n];
        par_chunks(&mut par, 8, 64, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = input[start + k] * 3 + 1;
            }
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn single_thread_and_empty_paths() {
        let mut out = vec![0u8; 10];
        par_chunks(&mut out, 1, 4, |s, c| {
            for (k, v) in c.iter_mut().enumerate() {
                *v = (s + k) as u8;
            }
        });
        assert_eq!(out, (0..10u8).collect::<Vec<_>>());
        let mut empty: Vec<u8> = vec![];
        par_chunks(&mut empty, 4, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic]
    fn a_panicking_worker_panics_the_caller() {
        let mut out = vec![0u32; 1000];
        par_chunks(&mut out, 4, 10, |start, _| {
            if start > 0 {
                panic!("worker at {start} fails");
            }
        });
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_panics() {
        let mut out = vec![0u8; 4];
        par_chunks(&mut out, 2, 0, |_, _| {});
    }
}

//! Seeded request generation: `.gsk` skeletons from four program
//! families, encoded as `gpp/1 project` payloads and grouped into the
//! frames a client sends.
//!
//! The families cover the projector's distinct paths: a streaming 1-D
//! kernel (transfer-bound), a 2-D stencil (two thread-axis candidates), a
//! matrix multiply with a serial reduction loop, and a two-kernel pipeline
//! with a stream/chunk transfer schedule (the only family that reaches the
//! timeline). Every generated program is clean under the static analyzer,
//! so no request is rejected and every reply carries a full projection.

use gpp_serve::{Command, Request, ServeConfig};

/// The built-in machines. Requests alternate between them in blocks of
/// four, so every family meets both.
pub const MACHINES: [&str; 2] = ["eureka", "v2"];

/// How much work the requests of a workload share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Eight programs requested over and over in random order: after its
    /// first request each one is answered from the projection memo.
    Repeated,
    /// Four times as many programs as the server's projection memo holds,
    /// walked in order, so a program is always evicted before it is
    /// requested again.
    Distinct,
}

impl Mix {
    fn programs(self) -> usize {
        match self {
            Mix::Repeated => 8,
            Mix::Distinct => 4 * ServeConfig::default().projection_cache,
        }
    }
}

/// Frames in the cycle of a `Repeated` mix.
const REPEATED_FRAMES: usize = 256;

/// One request of a workload.
pub struct Item {
    /// The machine the request targets.
    pub machine: &'static str,
    /// The encoded request: header line plus skeleton.
    pub payload: String,
}

/// One frame a client sends: a single request, or a `batch` of them.
pub struct Frame {
    /// The encoded frame payload.
    pub payload: String,
    /// The pool items it carries, in order.
    pub items: Vec<usize>,
    /// Whether the payload is a `batch` request.
    pub batched: bool,
}

/// The requests of one workload: a pure function of (mix, seed).
pub struct Pool {
    mix: Mix,
    seed: u64,
    pub items: Vec<Item>,
}

impl Pool {
    pub fn generate(mix: Mix, seed: u64) -> Pool {
        let mut rng = Rng(seed);
        let items = (0..mix.programs())
            .map(|i| {
                let skeleton = match i % 4 {
                    0 => vadd(&mut rng, i),
                    1 => stencil(&mut rng, i),
                    2 => matmul(&mut rng, i),
                    _ => pipeline(&mut rng, i),
                };
                let machine = MACHINES[(i / 4) % MACHINES.len()];
                let mut req = Request::new(Command::Project);
                req.machine = machine.to_string();
                req.skeleton = skeleton;
                Item {
                    machine,
                    payload: req.encode(),
                }
            })
            .collect();
        Pool { mix, seed, items }
    }

    /// The frames a client sends, in this order and then over again, each
    /// carrying `batch` requests (a `batch` frame when `batch > 1`). A
    /// `Repeated` mix draws every request at random; a `Distinct` one
    /// walks the pool in order.
    pub fn frames(&self, batch: usize) -> Vec<Frame> {
        let mut rng = Rng(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let order: Vec<usize> = match self.mix {
            Mix::Repeated => (0..REPEATED_FRAMES * batch)
                .map(|_| (rng.next_u64() % self.items.len() as u64) as usize)
                .collect(),
            Mix::Distinct => (0..self.items.len()).collect(),
        };
        order
            .chunks(batch)
            .map(|items| {
                let batched = batch > 1;
                let payload = if batched {
                    Request::new_batch(items.iter().map(|&i| self.items[i].payload.clone()))
                        .encode()
                } else {
                    self.items[items[0]].payload.clone()
                };
                Frame {
                    payload,
                    items: items.to_vec(),
                    batched,
                }
            })
            .collect()
    }
}

/// splitmix64: small and seedable, so a workload is a pure function of
/// its seed.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next_u64() % choices.len() as u64) as usize]
    }
}

// Indentation in `.gsk` is ignored, so the templates below leave it out.

/// `c = a op b` over one long vector: transfer-bound, one thread axis.
fn vadd(rng: &mut Rng, id: usize) -> String {
    let n = rng.range(1 << 12, 1 << 23);
    let ty = rng.pick(&["f32", "f64"]);
    let adds = rng.range(1, 4);
    let muls = rng.range(1, 3);
    format!(
        "program vadd-{id}\n\
         array a {ty} [{n}]\n\
         array b {ty} [{n}]\n\
         array c {ty} [{n}]\n\
         kernel add\n\
         parallel i {n}\n\
         stmt adds={adds} muls={muls}\n\
         read a [i]\n\
         read b [i]\n\
         write c [i]\n"
    )
}

/// A five-point interior sweep over an n x n grid (HotSpot's shape): two
/// parallel loops, so the search also tries the interchanged thread axis.
fn stencil(rng: &mut Rng, id: usize) -> String {
    let n = rng.range(66, 2050);
    let m = n - 2;
    format!(
        "program stencil-{id}\n\
         array temp f32 [{n}, {n}]\n\
         array power f32 [{n}, {n}]\n\
         array temp_out f32 [{n}, {n}]\n\
         kernel step\n\
         parallel i {m}\n\
         parallel j {m}\n\
         stmt adds=10 muls=6\n\
         read temp [i, j+1]\n\
         read temp [i+2, j+1]\n\
         read temp [i+1, j]\n\
         read temp [i+1, j+2]\n\
         read temp [i+1, j+1]\n\
         read power [i+1, j+1]\n\
         write temp_out [i+1, j+1]\n"
    )
}

/// Dense matrix multiply: a serial reduction loop inside two parallel
/// ones, accumulating into `c`.
fn matmul(rng: &mut Rng, id: usize) -> String {
    let n = rng.range(32, 1024);
    format!(
        "program matmul-{id}\n\
         array a f32 [{n}, {n}]\n\
         array b f32 [{n}, {n}]\n\
         array c f32 [{n}, {n}]\n\
         kernel mm\n\
         parallel i {n}\n\
         parallel j {n}\n\
         serial k {n}\n\
         stmt adds=1 muls=1\n\
         read a [i, k]\n\
         read b [k, j]\n\
         read c [i, j]\n\
         write c [i, j]\n"
    )
}

/// Two kernels joined by a device temporary, with both uploads and the
/// download pipelined on streams in K chunks: the timeline prices the
/// overlap.
fn pipeline(rng: &mut Rng, id: usize) -> String {
    let n = rng.range(1 << 16, 1 << 22);
    let chunks = rng.pick(&[2, 4, 8]);
    format!(
        "program pipeline-{id}\n\
         array a f32 [{n}]\n\
         array b f32 [{n}]\n\
         array t f32 [{n}] temporary\n\
         array c f32 [{n}]\n\
         h2d a stream 1 chunks={chunks}\n\
         h2d b stream 2 chunks={chunks}\n\
         kernel combine\n\
         parallel i {n}\n\
         stmt adds=1 muls=1\n\
         read a [i]\n\
         read b [i]\n\
         write t [i]\n\
         kernel scale\n\
         parallel i {n}\n\
         stmt muls=2\n\
         read t [i]\n\
         write c [i]\n\
         d2h c stream 1 chunks={chunks}\n"
    )
}

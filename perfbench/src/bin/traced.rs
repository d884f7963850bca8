//! Traced benchmark binary: per-layer metrics from spans, with the counting
//! allocator installed for the per-span heap peaks.

#[global_allocator]
static ALLOC: perfbench::sys::CountingAlloc = perfbench::sys::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main_with(true));
}
